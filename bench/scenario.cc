#include "bench/scenario.h"

#include <algorithm>
#include <cstring>

#include "src/common/rand.h"

namespace flock::bench {

constexpr uint16_t kEchoRpc = 1;
constexpr uint16_t kReadRpc = 2;   // req [id u64] -> resp [extent bytes]
constexpr uint16_t kWriteRpc = 3;  // req [id u64][extent bytes] -> resp [ok u64]

int64_t ExactPercentile(const std::vector<int64_t>& samples, int pct) {
  std::vector<int64_t> sorted;
  for (const int64_t v : samples) {
    if (v >= 0) {
      sorted.push_back(v);
    }
  }
  if (sorted.empty()) {
    return -1;
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() * static_cast<size_t>(pct) / 100];
}

void LaneCensus::AppendTo(JsonRow* row, bool include_retired) const {
  row->Add("lanes_healthy", healthy)
      .Add("lanes_quarantined", quarantined)
      .Add("lanes_reconnecting", reconnecting);
  if (include_retired) {
    row->Add("lanes_retired", retired);
  }
  row->Add("lane_reconnects", reconnects);
}

const ClassResult& ScenarioResult::Class(std::string_view name) const {
  for (const ClassResult& c : classes) {
    if (c.name == name) {
      return c;
    }
  }
  FLOCK_CHECK(false) << "no traffic class " << std::string(name);
  return classes.front();
}

const TenantCensus* ScenarioResult::Tenant(tenant::TenantId id) const {
  for (const TenantCensus& t : tenants) {
    if (t.id == id) {
      return &t;
    }
  }
  return nullptr;
}

uint64_t ScenarioResult::ServerTotal(uint64_t ServerStats::*field) const {
  uint64_t total = 0;
  for (const ServerStats& s : server_stats) {
    total += s.*field;
  }
  return total;
}

uint64_t ScenarioResult::ClientTotal(uint64_t ClientStats::*field) const {
  uint64_t total = 0;
  for (const ClientStats& s : client_stats) {
    total += s.*field;
  }
  return total;
}

void ScenarioResult::AppendTenantRows(JsonDump* dump) const {
  const double sim_seconds = static_cast<double>(end_ns) / 1e9;
  for (const TenantCensus& t : tenants) {
    const tenant::TenantCounters& c = t.counters;
    JsonRow row;
    row.Add("row", "tenant")
        .Add("tenant", static_cast<uint64_t>(t.id))
        .Add("weight", t.weight)
        .Add("rpcs", c.rpcs)
        .Add("rpcs_per_sec", sim_seconds > 0 ? c.rpcs / sim_seconds : 0.0)
        .Add("bytes", c.bytes)
        .Add("credit_stalls", c.credit_stalls)
        .Add("quota_stalls", c.quota_stalls)
        .Add("throttle_events", c.throttle_events)
        .Add("throttle_recoveries", c.throttle_recoveries)
        .Add("over_quota_windows", c.over_quota_windows)
        .Add("admission_rejects", c.admission_rejects)
        .Add("admission_degrades", c.admission_degrades)
        .Add("stamp_mismatches", c.stamp_mismatches)
        .Add("live_connections", t.live_connections)
        .Add("live_lanes", t.live_lanes);
    dump->Row(row);
  }
}

World::World(const Scenario& s, const Handlers& handlers)
    : cluster_(std::make_unique<verbs::Cluster>(
          verbs::Cluster::Config{.num_nodes = s.servers + s.clients,
                                 .cores_per_node = s.cores_per_node,
                                 .cost = s.cost,
                                 .num_shards = s.shards,
                                 .num_workers = s.workers})) {
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(*cluster_);
  for (const auto& [id, policy] : s.tenants) {
    cp.tenants().Register(id, policy);
  }
  if (s.extent_bytes > 0) {
    store_.resize(s.num_extents * s.extent_bytes);
    for (size_t i = 0; i < store_.size(); ++i) {
      store_[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
    }
  }
  for (int n = 0; n < s.servers; ++n) {
    servers_.push_back(std::make_unique<FlockRuntime>(*cluster_, n, s.server_cfg));
    FlockRuntime& server = *servers_.back();
    if (handlers) {
      handlers(server);
    } else {
      const Nanos cpu = s.handler_cpu;
      const uint32_t touch = s.touch_bytes_per_ns;
      auto cost = [cpu, touch](uint32_t len) -> Nanos {
        return cpu + (touch > 0 ? len / touch : 0);
      };
      server.RegisterHandler(kEchoRpc, [cost](const uint8_t* req, uint32_t len,
                                              uint8_t* resp, uint32_t,
                                              Nanos* cpu_ns) -> uint32_t {
        *cpu_ns = cost(len);
        std::memcpy(resp, req, len);
        return len;
      });
      if (s.extent_bytes > 0) {
        uint8_t* store = store_.data();
        const uint32_t bytes = s.extent_bytes;
        const uint64_t count = s.num_extents;
        server.RegisterHandler(
            kReadRpc, [=](const uint8_t* req, uint32_t, uint8_t* resp,
                          uint32_t, Nanos* cpu_ns) -> uint32_t {
              uint64_t id = 0;
              std::memcpy(&id, req, 8);
              FLOCK_CHECK_LT(id, count);
              std::memcpy(resp, store + id * bytes, bytes);
              *cpu_ns = cost(bytes);
              return bytes;
            });
        server.RegisterHandler(
            kWriteRpc, [=](const uint8_t* req, uint32_t len, uint8_t* resp,
                           uint32_t, Nanos* cpu_ns) -> uint32_t {
              uint64_t id = 0;
              std::memcpy(&id, req, 8);
              FLOCK_CHECK_LT(id, count);
              FLOCK_CHECK_EQ(len, 8 + bytes);
              std::memcpy(store + id * bytes, req + 8, bytes);
              *cpu_ns = cost(bytes);
              const uint64_t ok = 1;
              std::memcpy(resp, &ok, 8);
              return 8;
            });
      }
    }
    server.StartServer(s.server_cores);
  }
  for (int c = 0; c < s.clients; ++c) {
    clients_.push_back(
        std::make_unique<FlockRuntime>(*cluster_, s.servers + c, s.client_cfg));
    clients_.back()->StartClient();
  }
}

World::~World() {
  // Destroy every coroutine frame while the runtimes it references exist.
  cluster_->sim().Shutdown();
}

namespace {

// Per-worker counters: each worker runs on its client node's shard, so
// everything it writes stays single-writer under sharding and is folded in
// node order after the run.
struct WorkerStats {
  int node = 0;
  size_t cls = 0;
  uint64_t ok = 0;
  uint64_t fail = 0;
  uint64_t measured_ok = 0;
  uint64_t measured_fail = 0;
  uint64_t measured_bytes = 0;
  uint64_t sessions = 0;
  Histogram latency;
  std::vector<int64_t> call_ns;
  bool finite = false;  // fixed calls or scheduled sessions
  bool finished = false;
  Nanos done_at = 0;
};

// What the workers of one run share. Written only between RunFor calls
// (measuring, stop) or read-only; ttfr slots have one writer each.
struct RunState {
  const Scenario* s = nullptr;
  sim::Simulator* sim = nullptr;
  ctrl::ControlPlane* cp = nullptr;
  bool measuring = false;
  bool stop = false;
  std::vector<std::unique_ptr<WorkerStats>> workers;
  std::vector<std::vector<int64_t>> ttfr;  // per class, scheduled sessions

  void Note(WorkerStats& w, bool ok, Nanos started, uint64_t bytes) {
    (ok ? w.ok : w.fail) += 1;
    if (measuring) {
      (ok ? w.measured_ok : w.measured_fail) += 1;
      w.measured_bytes += bytes;
      w.latency.Record(sim->Now() - started);
    }
  }

  bool FiniteWorkDone() const {
    for (const auto& w : workers) {
      if (w->finite && !w->finished) {
        return false;
      }
    }
    return true;
  }

  uint64_t SessionsDone() const {
    uint64_t done = 0;
    for (const auto& w : workers) {
      done += w->finite ? w->sessions : 0;
    }
    return done;
  }
};

sim::Proc EchoWorker(RunState& run, WorkerStats& w, const Load& load,
                     Connection* conn, FlockThread* thread) {
  std::vector<uint8_t> payload(load.payload, 0x5a);
  std::vector<uint8_t> resp(load.payload);
  for (int i = 0; (load.calls == 0 || i < load.calls) && !run.stop; ++i) {
    const Nanos t0 = run.sim->Now();
    const bool ok = co_await conn->Call(*thread, kEchoRpc,
                                        PayloadRef(payload.data(), load.payload),
                                        resp.data(), load.payload, nullptr);
    run.Note(w, ok, t0, 0);
    if (load.calls > 0 && ok) {
      w.call_ns[static_cast<size_t>(i)] = run.sim->Now() - t0;
    }
    if (load.think > 0) {
      co_await sim::Delay(*run.sim, load.think);
    }
  }
  w.finished = true;
  w.done_at = run.sim->Now();
}

sim::Proc ExtentWorker(RunState& run, WorkerStats& w, Connection* conn,
                       FlockThread* thread, uint64_t seed) {
  const uint32_t bytes = run.s->extent_bytes;
  Rng rng(seed);
  // Caller-owned transfer buffers, hoisted: the whole loop is allocation-free
  // in steady state (AllocTest.SteadyStateExtentsAreAllocationFree).
  std::vector<uint8_t> write_buf(8 + bytes);
  std::vector<uint8_t> read_buf(bytes);
  std::vector<uint8_t> ack(8);
  for (uint32_t i = 0; i < bytes; ++i) {
    write_buf[8 + i] = static_cast<uint8_t>(seed + i);
  }
  while (!run.stop) {
    const uint64_t id = rng.NextBelow(run.s->num_extents);
    const bool is_read = rng.NextBelow(2) == 0;
    uint32_t resp_len = 0;
    const Nanos t0 = run.sim->Now();
    bool ok;
    if (is_read) {
      ok = co_await conn->Call(
          *thread, kReadRpc, PayloadRef(reinterpret_cast<const uint8_t*>(&id), 8),
          read_buf.data(), bytes, &resp_len);
    } else {
      // Header and payload as two slices: the id is gathered from this
      // frame, the extent from the hoisted buffer — no concatenation copy.
      std::memcpy(write_buf.data(), &id, 8);
      PayloadRef req;
      req.Add(write_buf.data(), 8);
      req.Add(write_buf.data() + 8, bytes);
      ok = co_await conn->Call(*thread, kWriteRpc, req, ack.data(), 8, &resp_len);
    }
    run.Note(w, ok, t0, is_read ? resp_len : bytes);
  }
}

sim::Proc SessionWorker(RunState& run, WorkerStats& w, const Load& load,
                        FlockRuntime& rt, FlockThread* thread, int server_node,
                        int index, int stride) {
  std::vector<uint8_t> payload(load.payload, 0x42);
  std::vector<uint8_t> resp(load.payload);
  std::vector<int64_t>& ttfr = run.ttfr[w.cls];
  int s = index;
  while (load.sessions > 0 ? s < load.sessions : !run.stop) {
    if (load.sessions > 0) {
      const Nanos start = static_cast<Nanos>(s) * load.gap;
      if (run.sim->Now() < start) {
        co_await sim::Delay(*run.sim, start - run.sim->Now());
      }
    }
    const Nanos t0 = run.sim->Now();
    if (load.membership) {
      run.cp->Join(rt.node());
    }
    Connection* conn = co_await rt.ConnectAsync(server_node, load.lanes, load.tenant);
    if (conn == nullptr) {  // admission refused the handshake: retry
      co_await sim::Delay(*run.sim, 10 * kMicrosecond);
      continue;
    }
    for (int i = 0; i < load.calls && !run.stop; ++i) {
      const Nanos c0 = run.sim->Now();
      const bool ok = co_await conn->Call(
          *thread, kEchoRpc, PayloadRef(payload.data(), load.payload), resp.data(),
          load.payload, nullptr);
      run.Note(w, ok, c0, 0);
      if (i == 0 && load.sessions > 0) {
        ttfr[static_cast<size_t>(s)] = run.sim->Now() - t0;
      }
    }
    // Step off the response dispatcher's stack before closing: the last
    // Call's awaiter resumes inline from the dispatcher pass, and
    // CloseConnection only harvests quiescent lanes into the recycling pool.
    co_await sim::Delay(*run.sim, 1 * kMicrosecond);
    rt.CloseConnection(conn);
    if (load.membership) {
      run.cp->Leave(rt.node());
    }
    w.sessions += 1;
    w.done_at = run.sim->Now();
    s += stride;
  }
  w.finished = true;
}

// Membership-epoch batching: Leaves (and Joins) landing inside one window are
// coalesced into a single epoch bump and one server repartition at window
// end. Membership itself flips immediately, so admission checks stay exact.
sim::Proc EpochBatcher(RunState& run, uint64_t total_sessions) {
  while (run.SessionsDone() < total_sessions) {
    run.cp->BeginEpochBatch();
    co_await sim::Delay(*run.sim, run.s->epoch_batch);
    run.cp->EndEpochBatch();
  }
}

}  // namespace

ScenarioResult RunScenario(const Scenario& s) {
  RunState run;  // outlives the world: frames are destroyed first
  // Setup-phase connections with their client node, in load order.
  std::vector<std::pair<int, Connection*>> conns;
  World world(s);
  verbs::Cluster& cluster = world.cluster();
  run.s = &s;
  run.sim = &cluster.sim();
  run.cp = &ctrl::ControlPlane::For(cluster);

  // Spawn every load's workers, node by node. One SplitMix64 stream, keyed
  // by the extent size, seeds each worker's Rng in spawn order.
  uint64_t seed = 0x9e3779b97f4a7c15ULL ^ s.extent_bytes;
  uint64_t scheduled_sessions = 0;
  std::vector<int> next_core(static_cast<size_t>(s.clients), 0);
  std::vector<Connection*> node_conn(static_cast<size_t>(s.clients), nullptr);
  for (size_t cls = 0; cls < s.loads.size(); ++cls) {
    const Load& load = s.loads[cls];
    run.ttfr.emplace_back(static_cast<size_t>(load.sessions), -1);
    scheduled_sessions += static_cast<uint64_t>(load.sessions);
    for (int i = 0; i < load.nodes; ++i) {
      const int node = load.first_node + i;
      FlockRuntime& rt = world.client(node);
      const int server_node = i % s.servers;
      if (load.membership) {
        run.cp->Leave(node);
      }
      Connection*& conn = node_conn[static_cast<size_t>(node - s.servers)];
      if (conn == nullptr && load.kind != Load::Kind::kSessions) {
        conn = rt.Connect(world.server(server_node),
                          load.lanes > 0 ? load.lanes
                                         : static_cast<uint32_t>(load.threads),
                          load.tenant);
        conns.emplace_back(node, conn);
      }
      int& core = next_core[static_cast<size_t>(node - s.servers)];
      if (load.first_core >= 0) {
        core = load.first_core;
      }
      for (int t = 0; t < load.threads; ++t) {
        run.workers.push_back(std::make_unique<WorkerStats>());
        WorkerStats& w = *run.workers.back();
        w.node = node;
        w.cls = cls;
        w.finite = load.kind == Load::Kind::kSessions ? load.sessions > 0
                                                       : load.calls > 0;
        FlockThread* thread = rt.CreateThread(core++);
        const uint64_t worker_seed = SplitMix64(seed);
        switch (load.kind) {
          case Load::Kind::kEcho:
            w.call_ns.assign(static_cast<size_t>(load.calls), -1);
            cluster.sim().Spawn(EchoWorker(run, w, load, conn, thread), node);
            break;
          case Load::Kind::kExtent:
            cluster.sim().Spawn(ExtentWorker(run, w, conn, thread, worker_seed),
                                node);
            break;
          case Load::Kind::kSessions:
            cluster.sim().Spawn(
                SessionWorker(run, w, load, rt, thread, server_node,
                              i * load.threads + t, load.nodes * load.threads),
                node);
            break;
        }
      }
    }
  }
  if (s.kill_lane_at > 0) {
    cluster.fault().KillQpAt(s.kill_lane_at, conns.front().first,
                             conns.front().second->lane(0).qp->qpn());
  }
  if (s.epoch_batch > 0 && scheduled_sessions > 0) {
    cluster.sim().Spawn(EpochBatcher(run, scheduled_sessions));
  }

  ScenarioResult r;
  if (s.warmup > 0) {
    cluster.sim().RunFor(s.warmup);
  }
  run.measuring = true;
  const KernelCounters before = KernelCounters::Capture(cluster.sim());
  const WallTimer timer;
  if (s.cap > 0) {
    while (!run.FiniteWorkDone() && cluster.sim().Now() < s.cap) {
      cluster.sim().RunFor(1 * kMillisecond);
    }
  } else {
    uint64_t last = 0;
    for (int b = 0; b < s.buckets; ++b) {
      cluster.sim().RunFor(s.measure / s.buckets);
      uint64_t now = 0;
      for (const auto& w : run.workers) {
        now += w->ok + w->fail;
      }
      r.buckets.push_back(now - last);
      last = now;
    }
  }
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(cluster.sim()).Since(before);
  run.measuring = false;
  if (s.drain > 0) {
    run.stop = true;
    cluster.sim().RunFor(s.drain);
    // Orderly teardown while the world is still up.
    for (const auto& [node, conn] : conns) {
      world.client(node).CloseConnection(conn);
    }
    cluster.sim().RunFor(1 * kMillisecond);
  }
  r.end_ns = cluster.sim().Now();

  // Fold the workers into their classes, in spawn order.
  for (size_t cls = 0; cls < s.loads.size(); ++cls) {
    ClassResult c;
    c.name = s.loads[cls].name;
    c.ttfr_ns = std::move(run.ttfr[cls]);
    for (const auto& w : run.workers) {
      if (w->cls != cls) {
        continue;
      }
      c.ok += w->ok;
      c.fail += w->fail;
      c.measured_ok += w->measured_ok;
      c.measured_fail += w->measured_fail;
      c.measured_bytes += w->measured_bytes;
      c.sessions += w->sessions;
      c.latency.Merge(w->latency);
      c.call_ns.insert(c.call_ns.end(), w->call_ns.begin(), w->call_ns.end());
      c.last_done = std::max(c.last_done, w->done_at);
    }
    r.classes.push_back(std::move(c));
  }

  for (const auto& [node, conn] : conns) {
    const Connection::LaneStates states = conn->CountLaneStates();
    r.lanes.healthy += states.healthy;
    r.lanes.quarantined += states.quarantined;
    r.lanes.reconnecting += states.reconnecting;
    r.lanes.retired += states.retired;
    r.lanes.reconnects += conn->lane_reconnects();
  }
  r.ctrl = run.cp->stats();
  r.epoch = run.cp->epoch();
  r.replay_window = run.cp->replay_window_entries();
  for (int n = 0; n < s.servers; ++n) {
    const FlockRuntime& server = world.server(n);
    r.server_stats.push_back(server.server_stats());
    r.server_live_lanes += server.ServerLiveLanes();
    r.server_graveyard += server.ServerGraveyardLanes();
    r.server_lane_pool += server.ServerLanePool();
    r.sender_slots += server.ServerSenderSlots();
  }
  for (int c = 0; c < s.clients; ++c) {
    const FlockRuntime& client = world.client(s.servers + c);
    r.client_stats.push_back(client.client_stats());
    r.client_lane_pool += client.ClientLanePool();
  }
  const tenant::TenantRegistry& reg = run.cp->tenants();
  r.unknown_tenant_rejects = reg.unknown_rejects();
  reg.ForEachTenant([&](auto id, const auto& policy, const auto& counters,
                        uint32_t live_connections, uint32_t live_lanes) {
    r.tenants.push_back(TenantCensus{id, policy.weight, counters,
                                     live_connections, live_lanes});
  });

  TraceHash hash;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const verbs::Device::Stats& d = cluster.device(n).stats();
    hash.Mix(d.tx_msgs).Mix(d.tx_bytes).Mix(d.tx_wire_bytes).Mix(d.tx_packets);
    hash.Mix(d.rx_msgs).Mix(d.rx_packets).Mix(d.cqes_dma_ed);
  }
  for (int node = s.servers; node < cluster.num_nodes(); ++node) {
    uint64_t calls = 0;
    for (const auto& w : run.workers) {
      calls += w->node == node ? w->ok + w->fail : 0;
    }
    hash.Mix(calls);
  }
  for (const ClassResult& c : r.classes) {
    for (const int64_t v : c.call_ns) {
      hash.Mix(static_cast<uint64_t>(v));
    }
    for (const int64_t v : c.ttfr_ns) {
      hash.Mix(static_cast<uint64_t>(v));
    }
  }
  r.trace_hash = hash.value();
  return r;
}

}  // namespace flock::bench
