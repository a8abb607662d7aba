// Wall-clock performance smoke test for the simulation kernel itself.
//
// Every figure reproduction is bottlenecked by how fast the discrete-event
// kernel and the Flock hot path run on the *host* CPU, not by simulated
// fidelity. This bench drives a fixed fan-in echo workload (several client
// nodes closed-loop against one or more server nodes) for a fixed span of
// simulated time and reports host-side throughput: simulator events per
// wall-clock second, completed RPCs per wall-clock second, and peak RSS.
//
// Besides the single-shard default row it runs a shard-scaling pair — the
// same larger multi-server world on 1 shard and on --scale-shards shards —
// kScalePairs times, alternating which side runs first. The pair's event
// counts, RPC counts and trace hashes must match exactly (the sharded kernel
// replays the sequential trace, DESIGN.md §12) while the wall clock improves
// with the host cores available; the scale_speedup row carries every pair's
// ratio and their median. bench/gates.json gates both. Results are written to
// BENCH_perf_smoke.json (override with --json=<path>) so successive PRs have
// a perf trajectory to compare against.
//
// Usage:
//   perf_smoke [--clients=4] [--threads=8] [--payload=64] [--sim-ms=20]
//              [--repeats=3] [--shards=1] [--workers=0] [--servers=1]
//              [--scale=1] [--scale-shards=8] [--scale-servers=4]
//              [--scale-clients=12] [--scale-sim-ms=4]
//              [--json=BENCH_perf_smoke.json]
#include <sys/resource.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench/scenario.h"

namespace flock::bench {
namespace {

// Sequential/sharded pairs per run; the gate reads their median ratio.
constexpr int kScalePairs = 5;
static_assert(kScalePairs % 2 == 1, "the median is the middle ratio");
constexpr const char* kSpeedupKeys[kScalePairs] = {
    "speedup_1", "speedup_2", "speedup_3", "speedup_4", "speedup_5"};

// Fan-in echo: `clients` nodes of `threads` closed-loop echo workers, client
// c on server c % servers; warm up for a quarter span, then measure a span.
Scenario FanIn(int servers, int clients, int threads, uint32_t payload,
               Nanos span, int shards, int workers) {
  Scenario s;
  s.servers = servers;
  s.clients = clients;
  s.shards = shards;
  s.workers = workers;
  s.loads.push_back(Load{.name = "echo",
                         .first_node = servers,
                         .nodes = clients,
                         .threads = threads,
                         .payload = payload});
  s.warmup = span / 4;
  s.measure = span;
  return s;
}

int64_t PeakRssKb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double EventsPerSec(const ScenarioResult& r) {
  return static_cast<double>(r.kernel.events) / r.wall_s;
}

ScenarioResult Timed(const char* label, const Scenario& s) {
  const ScenarioResult r = RunScenario(s);
  std::printf("%-10s %12.0f %12lu %10.1f\n", label, EventsPerSec(r),
              static_cast<unsigned long>(r.kernel.events), r.wall_s * 1e3);
  return r;
}

// Wall-clock benches keep the fastest run, not the mean, so background host
// noise only ever costs reruns, never skews the recorded number.
const ScenarioResult& Fastest(const std::vector<ScenarioResult>& runs) {
  return *std::max_element(runs.begin(), runs.end(),
                           [](const ScenarioResult& a, const ScenarioResult& b) {
                             return EventsPerSec(a) < EventsPerSec(b);
                           });
}

JsonRow Row(const char* config, const Scenario& s, const ScenarioResult& r,
            int host_cpus, bool census) {
  const Load& load = s.loads.front();
  const uint64_t events = r.kernel.events;
  const uint64_t rpcs = r.Class("echo").measured();
  JsonRow row;
  row.Add("config", config)
      .Add("clients", s.clients)
      .Add("threads_per_client", load.threads)
      .Add("payload_bytes", load.payload)
      .Add("sim_ms", static_cast<int64_t>(s.measure / kMillisecond))
      .Add("servers", s.servers)
      .Add("shards", s.shards)
      .Add("host_cpus", host_cpus)
      .Add("events_per_sec", EventsPerSec(r))
      .Add("rpcs_per_sec", static_cast<double>(rpcs) / r.wall_s)
      .Add("events", events)
      .Add("rpcs", rpcs)
      .Add("events_per_rpc",
           rpcs == 0 ? 0
                     : static_cast<double>(events) / static_cast<double>(rpcs))
      .Add("resumes", r.kernel.resumes)
      .Add("direct_resumes", r.kernel.direct_resumes)
      .Add("coalesced_wakes", r.kernel.coalesced_wakes);
  if (census) {
    r.lanes.AppendTo(&row, /*include_retired=*/false);
  }
  row.Add("trace_hash", std::to_string(r.trace_hash))
      .Add("sim_mops", static_cast<double>(rpcs) /
                           static_cast<double>(s.measure) * 1e3)
      .Add("wall_s", r.wall_s);
  return row;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int threads = static_cast<int>(flags.Int("threads", 8));
  const uint32_t payload = static_cast<uint32_t>(flags.Int("payload", 64));
  const int repeats = static_cast<int>(flags.Int("repeats", 3));
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  JsonDump json(flags.Str("json", "BENCH_perf_smoke.json"), "perf_smoke");

  const Scenario fan_in = FanIn(
      static_cast<int>(flags.Int("servers", 1)),
      static_cast<int>(flags.Int("clients", 4)), threads, payload,
      flags.Int("sim-ms", 20) * kMillisecond,
      static_cast<int>(flags.Int("shards", 1)),
      static_cast<int>(flags.Int("workers", 0)));
  PrintBanner("perf_smoke: wall-clock kernel throughput");
  std::printf("%-10s %12s %12s %10s\n", "run", "events/s", "events", "wall ms");
  std::vector<ScenarioResult> runs;
  for (int i = 0; i < repeats; ++i) {
    runs.push_back(Timed(std::to_string(i).c_str(), fan_in));
  }
  JsonRow row = Row("default", fan_in, Fastest(runs), host_cpus, /*census=*/true);
  row.Add("peak_rss_kb", PeakRssKb());
  json.Row(row);

  if (!flags.Bool("scale", true)) {
    return 0;
  }
  // Shard-scaling pair: a larger multi-server world (several servers break
  // the single-dispatcher serial bottleneck, so shards have parallel work),
  // run in pairs whose first side alternates, so neither order-dependent host
  // effects (boost after idle, cache and page warmth) nor slow drifts land
  // on one side. Identical traces, different clocks.
  const int scale_shards = static_cast<int>(flags.Int("scale-shards", 8));
  Scenario seq = FanIn(static_cast<int>(flags.Int("scale-servers", 4)),
                       static_cast<int>(flags.Int("scale-clients", 12)),
                       threads, payload,
                       flags.Int("scale-sim-ms", 4) * kMillisecond, 1, 0);
  Scenario par = seq;
  par.shards = scale_shards;  // one worker per shard, capped at the host cores
  PrintBanner("perf_smoke: shard scaling (identical trace, parallel clock)");
  std::printf("%-10s %12s %12s %10s\n", "shards", "events/s", "events",
              "wall ms");
  std::vector<ScenarioResult> seq_runs, par_runs;
  std::vector<double> ratios;
  const std::string par_label = std::to_string(scale_shards);
  for (int p = 0; p < kScalePairs; ++p) {
    if (p % 2 == 1) {
      par_runs.push_back(Timed(par_label.c_str(), par));
    }
    seq_runs.push_back(Timed("1", seq));
    if (p % 2 == 0) {
      par_runs.push_back(Timed(par_label.c_str(), par));
    }
    ratios.push_back(seq_runs.back().wall_s / par_runs.back().wall_s);
  }
  json.Row(Row("scale_seq", seq, Fastest(seq_runs), host_cpus, false));
  json.Row(Row("scale_par", par, Fastest(par_runs), host_cpus, false));

  JsonRow speedup;
  speedup.Add("config", "scale_speedup")
      .Add("shards", scale_shards)
      .Add("host_cpus", host_cpus)
      .Add("effective_cores", std::min(scale_shards, host_cpus))
      .Add("pairs", kScalePairs);
  for (int p = 0; p < kScalePairs; ++p) {
    speedup.Add(kSpeedupKeys[p], ratios[static_cast<size_t>(p)]);
  }
  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[kScalePairs / 2];
  speedup.Add("speedup_median", median);
  std::printf("shard speedup: median %.2fx over %d pairs\n", median,
              kScalePairs);
  json.Row(speedup);
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
