// Fault-recovery bench: kill one of the client's lanes mid-run and measure
// how much steady-state throughput survives — and, with the control plane's
// lane reconnect enabled (the default), how long the handle takes to climb
// back to fault-free throughput.
//
// Two runs share every parameter except the fault. The baseline run is
// fault-free; the faulted run kills one client-side lane QP at 1/4 of the
// simulated span. Both runs record completions in fixed sim-time buckets:
//   * recovery        — completions inside the final quarter of the span
//                       (long after the kill) as a fraction of baseline,
//                       isolating the steady-state cost of the fault;
//   * recovery_time_ns — sim-ns from the kill until the first bucket whose
//                       completion count is back within 1% of the baseline's
//                       same bucket (-1 if throughput never recovers).
// With --reconnect=1 the lane is re-established through the control plane
// (fresh QP pair, ring resync, replay), so steady state runs at full lane
// count; with --reconnect=0 the quarantine-only behaviour applies (one lane
// short). bench/gates.json holds the recovery bounds of both modes.
//
// Usage:
//   fault_recovery [--threads=16] [--lanes=8] [--payload=64] [--sim-ms=20]
//                  [--timeout-us=200] [--retries=5] [--reconnect=1]
//                  [--buckets=1] [--json=BENCH_fault_recovery.json]
#include <cstdint>

#include "bench/scenario.h"

namespace flock::bench {
namespace {

// Sim-time buckets per run; the kill lands exactly on the bucket-10 boundary
// (span/4) so bucketed baseline/faulted comparisons line up.
constexpr int kBuckets = 40;

Scenario Echo(const Flags& flags, bool inject) {
  Scenario s;
  s.client_cfg.rpc_timeout = flags.Int("timeout-us", 200) * kMicrosecond;
  s.client_cfg.max_retries = static_cast<uint16_t>(flags.Int("retries", 5));
  s.client_cfg.lane_reconnect = flags.Int("reconnect", 1) != 0;
  // Two response dispatchers so the client is not the saturated resource:
  // with a single dispatcher at this thread count, the measurement is of the
  // client's CPU ceiling (a revived lane re-enters phase-shifted from the
  // others, costing the shared dispatcher an extra probe pass per cycle —
  // a ~5% tax that would mask the recovery this bench is actually gating).
  s.client_cfg.response_dispatchers = 2;
  s.loads.push_back(
      Load{.name = "echo",
           .threads = static_cast<int>(flags.Int("threads", 16)),
           .lanes = static_cast<uint32_t>(flags.Int("lanes", 8)),
           .payload = static_cast<uint32_t>(flags.Int("payload", 64))});
  s.measure = flags.Int("sim-ms", 20) * kMillisecond;
  s.buckets = kBuckets;
  s.kill_lane_at = inject ? s.measure / 4 : 0;
  return s;
}

uint64_t FinalQuarter(const ScenarioResult& r) {
  uint64_t n = 0;
  for (int b = kBuckets - kBuckets / 4; b < kBuckets; ++b) {
    n += r.buckets[static_cast<size_t>(b)];
  }
  return n;
}

// Sim-ns from the kill until faulted per-bucket throughput is back within 1%
// of the baseline's matching bucket; -1 if it never gets there.
int64_t RecoveryTimeNs(const ScenarioResult& base, const ScenarioResult& faulted,
                       Nanos sim_span) {
  const Nanos bucket_ns = sim_span / kBuckets;
  const Nanos kill_ns = sim_span / 4;
  for (int b = static_cast<int>(kill_ns / bucket_ns); b < kBuckets; ++b) {
    const auto i = static_cast<size_t>(b);
    const double target = 0.99 * static_cast<double>(base.buckets[i]);
    if (base.buckets[i] > 0 && static_cast<double>(faulted.buckets[i]) >= target) {
      return static_cast<int64_t>((b + 1) * bucket_ns - kill_ns);
    }
  }
  return -1;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  JsonDump json(flags.Str("json", "BENCH_fault_recovery.json"), "fault_recovery");
  const Scenario base_s = Echo(flags, /*inject=*/false);
  const Scenario faulted_s = Echo(flags, /*inject=*/true);
  const FlockConfig& cfg = base_s.client_cfg;
  const Load& load = base_s.loads.front();
  PrintBanner(cfg.lane_reconnect
                  ? "fault_recovery: kill 1 lane mid-run, reconnect via control plane"
                  : "fault_recovery: throughput after killing 1 lane mid-run");
  const ScenarioResult base = RunScenario(base_s);
  const ScenarioResult faulted = RunScenario(faulted_s);

  const uint64_t base_window = FinalQuarter(base);
  const uint64_t faulted_window = FinalQuarter(faulted);
  const double recovery = base_window == 0
                              ? 0.0
                              : static_cast<double>(faulted_window) /
                                    static_cast<double>(base_window);
  const int64_t recovery_ns = RecoveryTimeNs(base, faulted, base_s.measure);
  if (flags.Int("buckets", 0) != 0) {
    for (int b = 0; b < kBuckets; ++b) {
      const auto i = static_cast<size_t>(b);
      std::printf("bucket %2d: base %6lu faulted %6lu\n", b,
                  static_cast<unsigned long>(base.buckets[i]),
                  static_cast<unsigned long>(faulted.buckets[i]));
    }
  }
  const ClassResult& b = base.Class("echo");
  const ClassResult& f = faulted.Class("echo");
  std::printf("window rpcs: baseline %lu, faulted %lu (ok %lu, fail %lu)\n",
              static_cast<unsigned long>(base_window),
              static_cast<unsigned long>(faulted_window),
              static_cast<unsigned long>(f.ok), static_cast<unsigned long>(f.fail));
  std::printf("recovery: %.1f%% of fault-free window throughput, %.1f us from "
              "kill to within 1%% of baseline (-1: never)\n",
              recovery * 100.0, static_cast<double>(recovery_ns) / 1e3);

  JsonRow row;
  row.Add("threads", load.threads)
      .Add("lanes", load.lanes)
      .Add("payload_bytes", load.payload)
      .Add("sim_ms", static_cast<int64_t>(base_s.measure / kMillisecond))
      .Add("timeout_us", static_cast<int64_t>(cfg.rpc_timeout / kMicrosecond))
      .Add("reconnect", cfg.lane_reconnect ? int64_t{1} : int64_t{0})
      .Add("baseline_window_rpcs", base_window)
      .Add("faulted_window_rpcs", faulted_window)
      .Add("recovery", recovery)
      .Add("recovery_time_ns", recovery_ns)
      .Add("faulted_ok", f.ok)
      .Add("faulted_fail", f.fail)
      .Add("retries", faulted.ClientTotal(&ClientStats::retries))
      .Add("failed_rpcs", faulted.ClientTotal(&ClientStats::failed_rpcs))
      .Add("spurious_responses",
           faulted.ClientTotal(&ClientStats::spurious_responses))
      .Add("client_lane_failures", faulted.ClientTotal(&ClientStats::lane_failures))
      .Add("server_lane_failures", faulted.ServerTotal(&ServerStats::lane_failures));
  faulted.lanes.AppendTo(&row, /*include_retired=*/true);
  // The fault-free run's failure-path activity, which must all be zero.
  row.Add("baseline_fail", b.fail)
      .Add("baseline_retries", base.ClientTotal(&ClientStats::retries))
      .Add("baseline_client_lane_failures",
           base.ClientTotal(&ClientStats::lane_failures));
  json.Row(row);
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
