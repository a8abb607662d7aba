// Tenant-isolation bench (DESIGN.md §15): a well-behaved victim tenant shares
// one server with a misbehaving attacker tenant, and the tenancy layer —
// admission control, weighted-fair credit clipping, byte quotas and the
// misbehaving-tenant throttle — must keep the victim's latency and throughput
// within a bounded distance of its solo (attacker-free) run.
//
// Profiles, all over identical victim schedules:
//   * solo       — the victim runs alone; its p50/p99 and throughput are the
//                  baseline every gate compares against.
//   * hotloop    — 8 attacker threads in a closed loop of small RPCs, no
//                  think time: a classic credit/CPU flood.
//   * oversized  — 4 attacker threads hammering near-max payloads: a byte
//                  flood that trips the quota with few requests.
//   * churn      — the attacker connects, bursts, disconnects in a loop:
//                  admission + teardown pressure on the handshake path and
//                  the recycling pools.
//   * open       — hotloop again with tenancy OFF: the unprotected reference,
//                  reported (and written to JSON) but not gated.
//
// Every gated profile runs twice and its row carries both runs' trace hashes.
// bench/gates.json holds the gates: victim p99 and throughput relative to
// solo, no failed victim RPC, attacker progress (isolation must not mean
// starvation), the throttle engaged by the floods, zero unknown-tenant
// rejects and zero admission accounting left after teardown.
//
// Usage:
//   tenant_isolation [--rpcs=1500] [--victim-threads=2] [--think-us=15]
//                    [--payload=64] [--json=BENCH_tenant_isolation.json]
#include <cstdint>
#include <string>

#include "bench/scenario.h"

namespace flock::bench {
namespace {

constexpr tenant::TenantId kVictim = 1;
constexpr tenant::TenantId kAttacker = 2;

enum class Attack { kNone, kHotLoop, kOversized, kChurn };

// Node 0 serves, node 1 runs the victim, node 2 the attacker.
Scenario Profile(const Flags& flags, Attack attack, bool tenancy) {
  Scenario s;
  s.clients = 2;
  s.cores_per_node = 16;
  s.server_cfg.tenancy = tenancy;
  s.server_cfg.qp_recycling = true;  // churn rides the shell pools
  s.client_cfg = s.server_cfg;
  s.handler_cpu = 200;
  // Policies are registered identically in every tenancy profile (including
  // solo), so the victim's weighted share of the window pool is the same
  // everywhere and solo-vs-attacked comparisons isolate the attacker's
  // traffic, not a registry delta.
  if (tenancy) {
    s.tenants.emplace_back(
        kVictim, tenant::TenantPolicy{.weight = 4, .max_lanes = 8,
                                      .max_connections = 4});
    s.tenants.emplace_back(
        kAttacker, tenant::TenantPolicy{.weight = 1, .credit_budget = 64,
                                        .byte_quota = 16 * 1024,
                                        .max_lanes = 4, .max_connections = 2});
  }
  const int rpcs = static_cast<int>(flags.Int("rpcs", 1500));
  const Nanos think = flags.Int("think-us", 15) * kMicrosecond;
  s.loads.push_back(
      Load{.name = "victim",
           .threads = static_cast<int>(flags.Int("victim-threads", 2)),
           .lanes = 4,
           .tenant = tenancy ? kVictim : tenant::kDefaultTenant,
           .payload = static_cast<uint32_t>(flags.Int("payload", 64)),
           .think = think,
           .calls = rpcs});
  const tenant::TenantId atk = tenancy ? kAttacker : tenant::kDefaultTenant;
  Load attacker{.name = "attacker", .first_node = 2, .lanes = 4, .tenant = atk};
  switch (attack) {
    case Attack::kNone:
      break;
    case Attack::kHotLoop:
      attacker.threads = 8;
      s.loads.push_back(attacker);
      break;
    case Attack::kOversized:
      attacker.threads = 4;
      attacker.payload = 4096;
      s.loads.push_back(attacker);
      break;
    case Attack::kChurn:
      attacker.kind = Load::Kind::kSessions;
      attacker.threads = 4;
      attacker.calls = 16;
      s.loads.push_back(attacker);
      break;
  }
  // Run until the victim finishes its fixed schedule (the cap only trips if
  // isolation failed badly enough to wedge it), let the attackers drain their
  // last call, then tear down in order so both tenants' admission accounting
  // must return to zero.
  s.cap = static_cast<Nanos>(rpcs) * (think + 1 * kMillisecond);
  s.drain = 2 * kMillisecond;
  return s;
}

struct Victim {
  int64_t p50 = -1;
  int64_t p99 = -1;
  double rps = 0;

  explicit Victim(const ClassResult& v)
      : p50(ExactPercentile(v.call_ns, 50)),
        p99(ExactPercentile(v.call_ns, 99)),
        rps(v.last_done == 0 ? 0
                             : static_cast<double>(v.ok) * 1e9 /
                                   static_cast<double>(v.last_done)) {}
};

void AddRow(JsonDump* json, const char* name, const Scenario& s,
            const ScenarioResult& r, const Victim& solo,
            const ScenarioResult* rerun) {
  static const ClassResult kNoAttacker;
  const ClassResult& v = r.Class("victim");
  const ClassResult& a = s.loads.size() > 1 ? r.Class("attacker") : kNoAttacker;
  const Victim victim(v);
  const TenantCensus* atk = r.Tenant(kAttacker);
  const tenant::TenantCounters atk_counters =
      atk != nullptr ? atk->counters : tenant::TenantCounters{};
  uint64_t live_admissions = 0;
  for (const TenantCensus& t : r.tenants) {
    live_admissions += t.live_connections + t.live_lanes;
  }
  TraceHash fingerprint;
  for (const int64_t l : v.call_ns) {
    fingerprint.Mix(static_cast<uint64_t>(l));
  }
  fingerprint.Mix(v.ok)
      .Mix(v.fail)
      .Mix(a.ok)
      .Mix(a.fail)
      .Mix(a.sessions)
      .Mix(static_cast<uint64_t>(v.last_done))
      .Mix(atk_counters.throttle_events);
  std::printf("%-10s victim %lu ok / %lu fail, p50 %.1f us, p99 %.1f us, "
              "%.0f rps; attacker %lu ok, %lu throttles\n",
              name, static_cast<unsigned long>(v.ok),
              static_cast<unsigned long>(v.fail),
              static_cast<double>(victim.p50) / 1e3,
              static_cast<double>(victim.p99) / 1e3, victim.rps,
              static_cast<unsigned long>(a.ok),
              static_cast<unsigned long>(atk_counters.throttle_events));

  const Load& load = s.loads.front();
  JsonRow row;
  row.Add("config", name)
      .Add("tenancy", s.server_cfg.tenancy ? 1 : 0)
      .Add("victim_threads", load.threads)
      .Add("rpcs_per_thread", load.calls)
      .Add("think_us", static_cast<int64_t>(load.think / kMicrosecond))
      .Add("payload_bytes", load.payload)
      .Add("victim_ok", v.ok)
      .Add("victim_fail", v.fail)
      .Add("victim_p50_ns", victim.p50)
      .Add("victim_p99_ns", victim.p99)
      .Add("victim_rps", victim.rps)
      .Add("p99_ratio_vs_solo",
           solo.p99 > 0 ? static_cast<double>(victim.p99) /
                              static_cast<double>(solo.p99)
                        : 0.0)
      .Add("tput_frac_vs_solo", solo.rps > 0 ? victim.rps / solo.rps : 0.0)
      .Add("attacker_ok", a.ok)
      .Add("attacker_fail", a.fail)
      .Add("attacker_cycles", a.sessions)
      .Add("attacker_throttle_events", atk_counters.throttle_events)
      .Add("attacker_quota_stalls", atk_counters.quota_stalls)
      .Add("attacker_credit_stalls", atk_counters.credit_stalls)
      .Add("unknown_rejects", r.unknown_tenant_rejects)
      .Add("fingerprint", fingerprint.value())
      .Add("live_admissions", live_admissions)
      .Add("trace_hash", std::to_string(r.trace_hash));
  if (rerun != nullptr) {
    row.Add("trace_hash_rerun", std::to_string(rerun->trace_hash));
  }
  json->Row(row);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  JsonDump json(flags.Str("json", "BENCH_tenant_isolation.json"),
                "tenant_isolation");
  PrintBanner("tenant_isolation: victim vs misbehaving tenants");

  const Scenario solo_s = Profile(flags, Attack::kNone, true);
  const ScenarioResult solo = RunScenario(solo_s);
  const ScenarioResult solo2 = RunScenario(solo_s);
  const Victim solo_victim(solo.Class("victim"));
  AddRow(&json, "solo", solo_s, solo, solo_victim, &solo2);

  const std::pair<const char*, Attack> kAttacks[] = {
      {"hotloop", Attack::kHotLoop},
      {"oversized", Attack::kOversized},
      {"churn", Attack::kChurn},
  };
  for (const auto& [name, attack] : kAttacks) {
    const Scenario s = Profile(flags, attack, true);
    const ScenarioResult r = RunScenario(s);
    const ScenarioResult r2 = RunScenario(s);
    // The hotloop run's end-of-run tenant census goes into the JSON as the
    // representative per-tenant rows.
    if (attack == Attack::kHotLoop) {
      r.AppendTenantRows(&json);
    }
    AddRow(&json, name, s, r, solo_victim, &r2);
  }

  // Unprotected reference: same hotloop with tenancy off. Reported only — it
  // documents what the gates are protecting against.
  const Scenario open_s = Profile(flags, Attack::kHotLoop, false);
  AddRow(&json, "open", open_s, RunScenario(open_s), solo_victim, nullptr);
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
