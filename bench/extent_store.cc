// Extent-store workload — the segmentation path under a storage-shaped mix.
//
// A server fronts a flat store of fixed-size extents (default 1 MB). Clients
// run two traffic classes against it over one connection:
//
//   metadata — 128 B lookup RPCs, latency-sensitive (the namespace / inode
//              traffic of a storage front-end).
//   extents  — whole-extent reads and writes, bandwidth-sensitive. Both
//              directions exercise the scatter-gather + segmentation path
//              (DESIGN.md §16): requests gather zero-copy from caller slices,
//              payloads above segment_threshold travel as chunk trains, and
//              responses land directly in caller buffers.
//
// Two configurations per run:
//
//   solo     — metadata threads only: the clean-room metadata p99 baseline.
//   bimodal  — metadata threads plus extent threads on the same lanes: the
//              number that matters is how much the chunk trains inflate the
//              metadata p99. Chunk interleaving (a train releases the lane
//              between chunks) is what keeps the ratio bounded.
//
// bench/gates.json gates: extent size >= 1 MB, sustained extent bandwidth
// above a floor, bimodal metadata p99 <= 2x solo, zero failures.
// Simulated-time gates: deterministic, host-speed independent, exact.
//
// Usage: extent_store [--extent_kb=1024] [--extents=64] [--extent_threads=2]
//                     [--meta_threads=4] [--lanes=4] [--server_cores=4]
//                     [--warmup_ms=2] [--measure_ms=6] [--json=<path>]
#include <cstdio>

#include "bench/scenario.h"

namespace flock::bench {
namespace {

Scenario Store(const Flags& flags, bool with_extents) {
  Scenario s;
  s.cores_per_node = 32;
  // Per-packet QP arbitration on the wire: without it a 1 MB chunk train
  // holds the whole-message FIFO link for its full serialization and every
  // metadata RPC behind it eats the burst in its tail.
  s.cost.link_arb_quantum_bytes = s.cost.mtu_bytes;
  s.extent_bytes = static_cast<uint32_t>(flags.Int("extent_kb", 1024)) * 1024u;
  s.num_extents = static_cast<uint64_t>(flags.Int("extents", 64));
  s.server_cfg.max_payload = 8 + s.extent_bytes;  // write req = [id][extent]
  s.server_cfg.segment_threshold = 8 * 1024;
  s.client_cfg = s.server_cfg;
  s.server_cores = static_cast<int>(flags.Int("server_cores", 4));
  // Touching payload costs a fixed dispatch charge plus ~64 GB/s of memcpy:
  // the bench stays NIC/wire-bound for extents (the paper's regime) while
  // the metadata class stays CPU-cheap.
  s.handler_cpu = 300;
  s.touch_bytes_per_ns = 64;
  s.loads.push_back(
      Load{.name = "meta",
           .threads = static_cast<int>(flags.Int("meta_threads", 4)),
           .lanes = static_cast<uint32_t>(flags.Int("lanes", 4)),
           .payload = 128});
  s.loads.push_back(Load{
      .name = "extent",
      .kind = Load::Kind::kExtent,
      .threads =
          with_extents ? static_cast<int>(flags.Int("extent_threads", 2)) : 0});
  s.warmup = flags.Int("warmup_ms", 2) * kMillisecond;
  s.measure = flags.Int("measure_ms", 6) * kMillisecond;
  return s;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "extent_store");

  PrintBanner("Extent store: solo metadata vs bimodal (metadata + extents)");
  const Scenario solo_s = Store(flags, false);
  const ScenarioResult solo = RunScenario(solo_s);
  const ScenarioResult bi = RunScenario(Store(flags, true));
  const double seconds = static_cast<double>(solo_s.measure) / 1e9;
  auto kops = [seconds](const ClassResult& c) {
    return static_cast<double>(c.measured()) / seconds / 1e3;
  };
  auto failures = [](const ScenarioResult& r) {
    return r.Class("meta").measured_fail + r.Class("extent").measured_fail;
  };
  const ClassResult& solo_meta = solo.Class("meta");
  const ClassResult& meta = bi.Class("meta");
  const ClassResult& extent = bi.Class("extent");
  const int64_t solo_p99 = solo_meta.latency.P99();
  const double p99_ratio =
      solo_p99 > 0 ? static_cast<double>(meta.latency.P99()) / solo_p99 : 0;
  const double gbps = static_cast<double>(extent.measured_bytes) / seconds / 1e9;
  std::printf("solo meta: %.1f kops, p99 %.1f us; bimodal: %u KB extents at "
              "%.2f GB/s, meta p99 %.1f us (%.2fx solo)\n",
              kops(solo_meta), static_cast<double>(solo_p99) / 1e3,
              solo_s.extent_bytes / 1024, gbps,
              static_cast<double>(meta.latency.P99()) / 1e3, p99_ratio);

  json.Row({{"config", "solo"}, {"meta_kops", kops(solo_meta)},
            {"meta_p50_ns", solo_meta.latency.Median()},
            {"meta_p99_ns", solo_p99}, {"failures", failures(solo)}});
  json.Row({{"config", "bimodal"}, {"extent_kb", solo_s.extent_bytes / 1024},
            {"extent_ops", extent.measured()}, {"extent_gbps", gbps},
            {"extent_p50_ns", extent.latency.Median()},
            {"extent_p99_ns", extent.latency.P99()},
            {"meta_kops", kops(meta)}, {"meta_p50_ns", meta.latency.Median()},
            {"meta_p99_ns", meta.latency.P99()}, {"meta_p99_ratio", p99_ratio},
            {"failures", failures(bi)}});
  return 0;
}
