// Connection-storm bench (DESIGN.md §13): thousands of short-lived clients
// Join the cluster, handshake a connection, fire a small RPC burst and Leave,
// at a configurable aggregate rate (default 1k joins/s). The per-session
// metric is time-to-first-RPC (TTFR): sim-ns from the session's start (before
// Join) until its first RPC response lands.
//
// Two configurations run in one binary over identical schedules:
//   * eager     — the storm flags off: every lane is created up front
//                 (CostModel::qp_create each), the handshake spends its
//                 ctrl_rtt before ConnectAsync returns, every Leave bumps the
//                 epoch and repartitions the server individually.
//   * optimized — qp_recycling + lazy_lanes + connect_piggyback on, plus
//                 membership epochs batched in fixed windows: lane shells
//                 harvested from closed connections are reused (qp_reset
//                 instead of qp_create), only lane 0 exists until a second
//                 thread shows up, and the ConnectRequest rides with the
//                 first RPC.
//
// Each configuration runs twice and its row carries both runs' trace hashes.
// bench/gates.json holds the gates: determinism, the optimized p99 TTFR gain
// over eager, zero control-plane rejects and lane failures, and a bounded
// end-of-storm census (live server lanes, sender slots, shell pools) no
// matter how many sessions ran.
//
// Usage:
//   conn_storm [--sessions=400] [--clients=8] [--gap-us=1000] [--lanes=4]
//              [--rpcs=4] [--payload=64] [--batch-window-us=1000]
//              [--json=BENCH_conn_storm.json]
#include <cstdint>
#include <string>

#include "bench/scenario.h"

namespace flock::bench {
namespace {

Scenario Storm(const Flags& flags, bool optimized) {
  const int sessions = static_cast<int>(flags.Int("sessions", 400));
  const Nanos gap = flags.Int("gap-us", 1000) * kMicrosecond;
  Scenario s;
  s.clients = static_cast<int>(flags.Int("clients", 8));
  s.cores_per_node = 16;
  s.server_cfg.qp_recycling = optimized;  // the harvest side of the pool
  s.client_cfg.qp_recycling = optimized;
  s.client_cfg.lazy_lanes = optimized;
  s.client_cfg.connect_piggyback = optimized;
  // The storm's client nodes start outside the cluster: each session Joins on
  // entry and Leaves on exit.
  s.loads.push_back(Load{.name = "calls",
                         .kind = Load::Kind::kSessions,
                         .nodes = s.clients,
                         .first_core = 2,
                         .lanes = static_cast<uint32_t>(flags.Int("lanes", 4)),
                         .payload = static_cast<uint32_t>(flags.Int("payload", 64)),
                         .calls = static_cast<int>(flags.Int("rpcs", 4)),
                         .sessions = sessions,
                         .gap = gap,
                         .membership = true});
  s.epoch_batch =
      optimized ? flags.Int("batch-window-us", 1000) * kMicrosecond : 0;
  // The server's schedulers tick forever, so the simulation never goes idle
  // on its own; the cap only trips if the storm wedges.
  s.cap = static_cast<Nanos>(sessions) * gap + 200 * kMillisecond;
  return s;
}

void AddRow(JsonDump* json, const char* name, const Scenario& s,
            const ScenarioResult& r, const ScenarioResult& rerun) {
  const Load& load = s.loads.front();
  const ClassResult& calls = r.Class("calls");
  const Nanos storm_ns = calls.last_done;  // first start to last completion
  const uint64_t qps_created = r.ServerTotal(&ServerStats::qps_created) +
                               r.ClientTotal(&ClientStats::qps_created);
  const uint64_t qps_recycled = r.ServerTotal(&ServerStats::qps_recycled) +
                                r.ClientTotal(&ClientStats::qps_recycled);
  // Server-side quarantines beyond the one each built lane gets at teardown
  // (a departing client's live lanes are all quarantined, so the expected
  // total is exactly the number of server lanes ever built).
  const uint64_t server_failures = r.ServerTotal(&ServerStats::lane_failures);
  const uint64_t server_built = r.ServerTotal(&ServerStats::qps_created) +
                                r.ServerTotal(&ServerStats::qps_recycled);
  TraceHash fingerprint;
  for (const int64_t t : calls.ttfr_ns) {
    fingerprint.Mix(static_cast<uint64_t>(t));
  }
  fingerprint.Mix(calls.sessions)
      .Mix(calls.ok)
      .Mix(calls.fail)
      .Mix(r.ctrl.calls)
      .Mix(r.epoch)
      .Mix(static_cast<uint64_t>(storm_ns))
      .Mix(qps_created)
      .Mix(qps_recycled);
  std::printf("%-10s %6lu sessions, p50 %.1f us, p99 %.1f us, %lu qps new, "
              "%lu recycled, %lu epochs\n",
              name, static_cast<unsigned long>(calls.sessions),
              static_cast<double>(ExactPercentile(calls.ttfr_ns, 50)) / 1e3,
              static_cast<double>(ExactPercentile(calls.ttfr_ns, 99)) / 1e3,
              static_cast<unsigned long>(qps_created),
              static_cast<unsigned long>(qps_recycled),
              static_cast<unsigned long>(r.epoch));

  JsonRow row;
  row.Add("config", name)
      .Add("sessions", load.sessions)
      .Add("clients", s.clients)
      .Add("gap_us", static_cast<int64_t>(load.gap / kMicrosecond))
      .Add("lanes", load.lanes)
      .Add("rpcs_per_session", load.calls)
      .Add("batch_window_us", static_cast<int64_t>(s.epoch_batch / kMicrosecond))
      .Add("done", calls.sessions)
      .Add("handshakes_per_sec",
           storm_ns == 0 ? 0
                         : static_cast<double>(calls.sessions) * 1e9 /
                               static_cast<double>(storm_ns))
      .Add("ttfr_p50_ns", ExactPercentile(calls.ttfr_ns, 50))
      .Add("ttfr_p99_ns", ExactPercentile(calls.ttfr_ns, 99))
      .Add("calls_ok", calls.ok)
      .Add("calls_fail", calls.fail)
      .Add("ctrl_calls", r.ctrl.calls)
      .Add("rejected_malformed", r.ctrl.rejected_malformed)
      .Add("rejected_replay", r.ctrl.rejected_replay)
      .Add("rejected_no_endpoint", r.ctrl.rejected_no_endpoint)
      .Add("rejected_not_member", r.ctrl.rejected_not_member)
      .Add("joins", r.ctrl.joins)
      .Add("leaves", r.ctrl.leaves)
      .Add("epoch", r.epoch)
      .Add("epoch_batches", r.ctrl.epoch_batches)
      .Add("replay_window_entries", r.replay_window)
      .Add("qps_created", qps_created)
      .Add("qps_recycled", qps_recycled)
      .Add("client_lane_failures", r.ClientTotal(&ClientStats::lane_failures))
      .Add("server_lane_failures", server_failures)
      .Add("unexpected_server_failures",
           server_failures > server_built ? server_failures - server_built : 0)
      .Add("server_live_lanes", r.server_live_lanes)
      .Add("server_graveyard", r.server_graveyard)
      .Add("server_lane_pool", r.server_lane_pool)
      .Add("client_lane_pool", r.client_lane_pool)
      .Add("sender_slots", r.sender_slots)
      .Add("fingerprint", fingerprint.value())
      .Add("trace_hash", std::to_string(r.trace_hash))
      .Add("trace_hash_rerun", std::to_string(rerun.trace_hash));
  json->Row(row);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  JsonDump json(flags.Str("json", "BENCH_conn_storm.json"), "conn_storm");
  PrintBanner("conn_storm: Join -> connect -> RPC burst -> Leave under churn");
  for (const bool optimized : {false, true}) {
    const Scenario s = Storm(flags, optimized);
    const ScenarioResult r = RunScenario(s);
    AddRow(&json, optimized ? "optimized" : "eager", s, r, RunScenario(s));
  }
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
