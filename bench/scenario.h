// One scenario runner for the CI benches (DESIGN.md §4). A Scenario declares
// an RPC world — topology, FlockConfig, traffic classes, a QP-kill and a
// session-churn schedule, tenants — and RunScenario builds it, runs warmup
// and measure, and folds what happened into one ScenarioResult. A bench is
// its list of scenarios plus the rows it writes from their results; its
// pass/fail rules live in bench/gates.json, evaluated by
// scripts/check_perf.py.
#ifndef FLOCK_BENCH_SCENARIO_H_
#define FLOCK_BENCH_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"
#include "src/tenant/tenant.h"

namespace flock::bench {

// One class of client traffic: `threads` workers on each of `nodes`
// consecutive client nodes. Echo and extent workers share their node's one
// setup-phase connection to server (node index % servers), opened with the
// lanes of the first such class on the node.
struct Load {
  enum class Kind {
    // Echo `payload` bytes through rpc 1: `calls` per worker (0 = until the
    // run stops), `think` of sim time after each call.
    kEcho,
    // Whole-extent reads and writes (even odds, uniform extent ids) of the
    // scenario's extent store through rpcs 2 and 3.
    kExtent,
    // Runtime-phase sessions: ConnectAsync -> burst of `calls` echoes ->
    // CloseConnection. With `sessions` > 0, session s starts at s * gap and
    // runs on worker s % (workers of the class); 0 = back to back until the
    // run stops.
    kSessions,
  };

  std::string name;  // ClassResult::name
  Kind kind = Kind::kEcho;
  int first_node = 1;
  int nodes = 1;
  int threads = 1;
  int first_core = -1;  // core of the first worker; -1 = next free on the node
  uint32_t lanes = 0;   // per connection; 0 = threads
  tenant::TenantId tenant = tenant::kDefaultTenant;
  uint32_t payload = 64;
  Nanos think = 0;
  int calls = 0;
  int sessions = 0;
  Nanos gap = 0;
  // Sessions Join before connecting and Leave after closing; the class's
  // nodes start outside the membership view.
  bool membership = false;
};

struct Scenario {
  // Topology: servers are nodes [0, servers), clients the next `clients`.
  int servers = 1;
  int clients = 1;
  int cores_per_node = 34;
  int shards = 1;
  int workers = 0;  // kernel worker threads; 0 = one per shard, host-capped
  sim::CostModel cost;
  FlockConfig server_cfg;
  FlockConfig client_cfg;
  int server_cores = 4;  // dispatcher cores per server

  // Handlers: rpc 1 echoes for handler_cpu (+ len / touch_bytes_per_ns when
  // non-zero). With extent_bytes > 0 the servers front a store of
  // num_extents extents: rpc 2 reads one, rpc 3 writes one, each charged the
  // echo cost of an extent.
  Nanos handler_cpu = 50;
  uint32_t touch_bytes_per_ns = 0;
  uint32_t extent_bytes = 0;
  uint64_t num_extents = 0;

  std::vector<Load> loads;
  std::vector<std::pair<tenant::TenantId, tenant::TenantPolicy>> tenants;

  // > 0: kill the client QP of lane 0 of the first connection at this time.
  Nanos kill_lane_at = 0;
  // > 0: batch membership epochs in windows of this length while scheduled
  // sessions remain.
  Nanos epoch_batch = 0;

  // Phases. Warmup, then either a fixed `measure` span in `buckets` equal
  // steps, or (cap > 0) 1 ms steps until every finite worker finished or the
  // clock reached cap. The measured window is everything after warmup.
  Nanos warmup = 0;
  Nanos measure = 0;
  int buckets = 1;
  Nanos cap = 0;
  // > 0: afterwards stop the open-ended workers, run `drain`, close the
  // setup-phase connections and run 1 ms more.
  Nanos drain = 0;
};

// One traffic class, summed over its workers.
struct ClassResult {
  std::string name;
  uint64_t ok = 0;  // calls over the whole run
  uint64_t fail = 0;
  uint64_t measured_ok = 0;  // calls completed in the measured window
  uint64_t measured_fail = 0;
  uint64_t measured_bytes = 0;  // extent payload moved in the measured window
  uint64_t sessions = 0;        // completed connect -> burst -> close cycles
  Histogram latency;            // every call of the measured window
  // Fixed-schedule calls, worker-major (-1 = failed); scheduled sessions'
  // time from session start to the first response (-1 = never).
  std::vector<int64_t> call_ns;
  std::vector<int64_t> ttfr_ns;
  Nanos last_done = 0;  // last fixed-schedule worker or session finished

  uint64_t measured() const { return measured_ok + measured_fail; }
};

// samples' exact pct-th percentile (sorted[n * pct / 100] over the
// non-negative entries); -1 when there are none.
int64_t ExactPercentile(const std::vector<int64_t>& samples, int pct);

// End-of-run control-plane lane census over the setup-phase connections.
struct LaneCensus {
  uint64_t healthy = 0;
  uint64_t quarantined = 0;
  uint64_t reconnecting = 0;
  uint64_t retired = 0;
  uint64_t reconnects = 0;

  // Canonical census keys, in canonical order. perf_smoke's committed
  // baseline schema predates the retired counter, so it stays opt-in.
  void AppendTo(JsonRow* row, bool include_retired) const;
};

struct TenantCensus {
  tenant::TenantId id = 0;
  uint32_t weight = 0;
  tenant::TenantCounters counters;
  uint32_t live_connections = 0;
  uint32_t live_lanes = 0;
};

struct ScenarioResult {
  std::vector<ClassResult> classes;
  std::vector<uint64_t> buckets;  // calls completed per measure bucket
  KernelCounters kernel;          // measured window
  double wall_s = 0;              // host time of the measured window
  Nanos end_ns = 0;               // sim clock when the run ended
  LaneCensus lanes;
  ctrl::ControlPlane::Stats ctrl;
  uint64_t epoch = 0;
  uint64_t replay_window = 0;
  std::vector<ServerStats> server_stats;  // per server
  std::vector<ClientStats> client_stats;  // per client node
  uint64_t server_live_lanes = 0;  // summed over servers / client nodes
  uint64_t server_graveyard = 0;
  uint64_t server_lane_pool = 0;
  uint64_t client_lane_pool = 0;
  uint64_t sender_slots = 0;
  uint64_t unknown_tenant_rejects = 0;
  std::vector<TenantCensus> tenants;  // registration order
  // FNV-1a over every node's device counters, every client node's
  // completed calls, then each class's call_ns and ttfr_ns: equal hashes,
  // equal observable trace.
  uint64_t trace_hash = 0;

  const ClassResult& Class(std::string_view name) const;
  const TenantCensus* Tenant(tenant::TenantId id) const;
  uint64_t ServerTotal(uint64_t ServerStats::*field) const;
  uint64_t ClientTotal(uint64_t ClientStats::*field) const;
  // One {"row":"tenant",...} row per registered tenant (DESIGN.md §15).
  void AppendTenantRows(JsonDump* dump) const;
};

// The built world of a scenario: the cluster, then every server runtime
// (handlers registered, dispatchers started), then every client runtime
// (started), in node order.
class World {
 public:
  using Handlers = std::function<void(FlockRuntime& server)>;

  // `handlers` replaces the scenario's echo/extent handlers when set.
  explicit World(const Scenario& s, const Handlers& handlers = nullptr);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  verbs::Cluster& cluster() { return *cluster_; }
  FlockRuntime& server(int i) { return *servers_[static_cast<size_t>(i)]; }
  FlockRuntime& client(int node) {
    return *clients_[static_cast<size_t>(node) - servers_.size()];
  }

 private:
  std::unique_ptr<verbs::Cluster> cluster_;
  std::vector<uint8_t> store_;  // the extent store (extent_bytes > 0)
  std::vector<std::unique_ptr<FlockRuntime>> servers_;
  std::vector<std::unique_ptr<FlockRuntime>> clients_;
};

// Builds the world of `s`, runs its loads through warmup and measure, and
// returns what happened. Deterministic: equal scenarios, equal results
// (except wall_s).
ScenarioResult RunScenario(const Scenario& s);

}  // namespace flock::bench

#endif  // FLOCK_BENCH_SCENARIO_H_
