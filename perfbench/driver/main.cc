// One run of one benchmark workload, in its own process so that its peak RSS
// belongs to it. Drives the Flock stack only through its public API:
// verbs::Cluster, FlockRuntime (ctor, RegisterHandler, StartServer,
// StartClient, Connect, ConnectAsync, CloseConnection, CreateThread),
// Connection::SendRpc / AwaitResponse / FreeRpc, sim().RunFor and the stats
// getters. Prints one JSON object on its last stdout line: host and sim
// metrics, the determinism fingerprint and the outcome of the correctness
// checks. Exits 1 when a check fails.
//
// Usage:
//   perfbench_driver --workload=<fanin_echo|scale_out|extent_mix|conn_churn>
//                    --seed=<n> [--trace=0|1] [--shards=<n>] [--workers=<n>]
//                    [--spans-out=<file>]
//
// The seed sets the workload's inputs only (thread start offsets and think
// times, payload bytes, extent ids, read/write choices, conn_churn's session
// placement); the simulator's own RNG streams are left at their defaults.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/driver/metrics.h"
#include "src/common/rand.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"

namespace perfbench {
namespace {

using flock::Connection;
using flock::FlockConfig;
using flock::FlockRuntime;
using flock::FlockThread;
using flock::Nanos;
using flock::PayloadRef;
using flock::PendingRpc;
using flock::kMicrosecond;
using flock::kMillisecond;

constexpr uint16_t kEchoRpc = 1;   // echo: metadata and 64 B echo traffic
constexpr uint16_t kReadRpc = 2;   // req [id u64] -> resp [extent bytes]
constexpr uint16_t kWriteRpc = 3;  // req [id u64][extent bytes] -> resp [1 u64]

constexpr int kMeasureChunks = 10;

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

struct Shape {
  std::string name;
  int servers = 1;
  int clients = 4;
  int threads_per_client = 8;
  uint32_t payload = 64;
  int cores_per_node = 34;
  int shards = 1;
  Nanos warmup = 0;
  Nanos measure = 0;
  // extent_mix
  int extent_threads = 0;
  uint32_t extent_bytes = 0;
  int extents_per_thread = 0;
  uint32_t lanes = 0;  // 0 = one lane per client thread
  // conn_churn
  int sessions = 0;
  Nanos session_gap = 0;
  int rpcs_per_session = 0;
};

bool MakeShape(const std::string& name, Shape* s) {
  s->name = name;
  if (name == "fanin_echo") {
    // perf_smoke's default world: 1 server, 4 clients x 8 threads, 64 B.
    s->warmup = 5 * kMillisecond;
    s->measure = 20 * kMillisecond;
    return true;
  }
  if (name == "scale_out") {
    // The paper's 24-node testbed: 704 lanes, 352 per server against
    // max_active_qps = 256.
    s->servers = 2;
    s->clients = 22;
    s->threads_per_client = 32;
    s->shards = 4;
    s->warmup = 1 * kMillisecond;
    s->measure = 6 * kMillisecond;
    return true;
  }
  if (name == "extent_mix") {
    s->clients = 1;
    s->threads_per_client = 4;  // metadata threads
    s->payload = 128;
    s->cores_per_node = 32;
    s->extent_threads = 2;
    s->extent_bytes = 1024 * 1024;
    s->extents_per_thread = 8;
    s->lanes = 4;
    s->warmup = 2 * kMillisecond;
    s->measure = 80 * kMillisecond;
    return true;
  }
  if (name == "conn_churn") {
    s->clients = 8;
    s->threads_per_client = 1;
    s->cores_per_node = 16;
    s->lanes = 1;  // one session thread, one lane
    s->sessions = 1000;
    s->session_gap = 50 * kMicrosecond;
    s->rpcs_per_session = 4;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-node logs (single writer: the node's shard) and the measured window
// ---------------------------------------------------------------------------

enum class Kind : uint8_t { kEcho = 0, kExtentRead = 1, kExtentWrite = 2, kSession = 3 };

// A sim-time span: an RPC (t[0] SendRpc called, t[1] SendRpc returned,
// t[2] AwaitResponse returned) or a session (t[0] scheduled start, t[1]
// ConnectAsync returned, t[2] first response, t[3] closed). Spans of one RPC
// or session share `id`.
struct SimSpan {
  uint64_t id = 0;
  Kind kind = Kind::kEcho;
  Nanos t[4] = {0, 0, 0, 0};
};

struct Window {
  Nanos start = 0;
  Nanos end = 0;
  bool Contains(Nanos t0, Nanos t2) const { return t0 >= start && t2 < end; }
};

struct NodeLog {
  uint64_t attempted = 0;  // operations issued (RPCs and connects)
  uint64_t failed = 0;     // ok == false, wrong bytes, refused connects
  uint64_t completed = 0;  // RPCs answered, whole run
  uint64_t window_rpcs = 0;
  uint64_t window_payload_bytes = 0;  // request + response payload
  std::vector<int64_t> latency;       // latency-sensitive class
  std::vector<int64_t> send_wait;
  std::vector<int64_t> await;
  std::vector<int64_t> extent_latency;
  // conn_churn
  uint64_t sessions_done = 0;
  Nanos last_done = 0;
  std::vector<int64_t> connect;
  std::vector<int64_t> first_call;
  std::vector<int64_t> ttfr;
  std::vector<Connection*> conns;
  std::vector<SimSpan> spans;  // traced runs only
  std::vector<std::string> errors;
};

struct Ctx {
  flock::sim::Simulator* sim = nullptr;
  Window win;
  bool trace = false;
  std::vector<NodeLog> logs;  // indexed by node
  HostTracer* tracer = nullptr;
};

void NoteError(NodeLog& log, const std::string& what) {
  if (log.errors.size() < 8) {
    log.errors.push_back(what);
  }
}

// Books one answered RPC into its node's log.
void BookRpc(Ctx& ctx, NodeLog& log, Kind kind, uint64_t id, Nanos t0, Nanos t1,
             Nanos t2, bool good, uint64_t payload_bytes) {
  log.attempted += 1;
  log.completed += 1;
  if (!good) {
    log.failed += 1;
  }
  if (t2 >= ctx.win.start && t2 < ctx.win.end) {
    log.window_rpcs += 1;
    log.window_payload_bytes += good ? payload_bytes : 0;
  }
  if (!ctx.win.Contains(t0, t2)) {
    return;
  }
  if (kind == Kind::kEcho) {
    log.latency.push_back(t2 - t0);
  } else {
    log.extent_latency.push_back(t2 - t0);
  }
  log.send_wait.push_back(t1 - t0);
  log.await.push_back(t2 - t1);
  if (ctx.trace) {
    log.spans.push_back(SimSpan{id, kind, {t0, t1, t2, 0}});
  }
}

uint64_t RpcId(int node, int thread, uint64_t seq) {
  return (static_cast<uint64_t>(node) << 48) | (static_cast<uint64_t>(thread) << 32) |
         (seq & 0xffffffffull);
}

// Echo request bytes: a per-thread key stamped with the sequence number.
void FillEcho(std::vector<uint8_t>& buf, uint64_t key, uint64_t seq) {
  for (size_t i = 0; i < buf.size(); i += 8) {
    const uint64_t w = key ^ (seq * 0x9E3779B97F4A7C15ull) ^ i;
    std::memcpy(buf.data() + i, &w, std::min<size_t>(8, buf.size() - i));
  }
}

// One echo RPC through SendRpc + AwaitResponse + FreeRpc (exactly what
// Connection::Call does), with the response checked against the request.
flock::sim::Co<bool> EchoOnce(Ctx& ctx, NodeLog& log, Connection* conn,
                              FlockThread* thread, int node, int tid,
                              std::vector<uint8_t>& req, uint64_t key,
                              uint64_t seq, Nanos* done_at) {
  FillEcho(req, key, seq);
  const uint32_t len = static_cast<uint32_t>(req.size());
  const Nanos t0 = ctx.sim->Now();
  PendingRpc* rpc = co_await conn->SendRpc(*thread, kEchoRpc, req.data(), len);
  const Nanos t1 = ctx.sim->Now();
  const bool ok = co_await conn->AwaitResponse(*thread, rpc);
  const Nanos t2 = ctx.sim->Now();
  const bool good = ok && rpc->response.size() == len &&
                    std::memcmp(rpc->response.data(), req.data(), len) == 0;
  conn->FreeRpc(rpc);
  if (!good) {
    NoteError(log, ok ? "echo response differs from its request"
                      : "echo RPC failed");
  }
  BookRpc(ctx, log, Kind::kEcho, RpcId(node, tid, seq), t0, t1, t2, good,
          2ull * len);
  *done_at = t2;
  co_return good;
}

flock::sim::Proc EchoWorker(Ctx& ctx, int node, Connection* conn,
                            FlockThread* thread, int tid, Nanos offset,
                            uint32_t bytes, uint64_t key) {
  NodeLog& log = ctx.logs[static_cast<size_t>(node)];
  std::vector<uint8_t> req(bytes);
  if (offset > 0) {
    co_await flock::sim::Delay(*ctx.sim, offset);
  }
  // Think time between a response and the next request: seeded, uniform
  // in [0, think_ns).
  flock::Rng think(key);
  Nanos done_at = 0;
  for (uint64_t seq = 0;; ++seq) {
    co_await EchoOnce(ctx, log, conn, thread, node, tid, req, key, seq, &done_at);
    if (const Nanos t = static_cast<Nanos>(think.NextBelow(200)); t > 0) {
      co_await flock::sim::Delay(*ctx.sim, t);
    }
  }
}

// ---------------------------------------------------------------------------
// Extents: each extent thread owns its ids and checks that a read returns
// the bytes it last wrote.
// ---------------------------------------------------------------------------

uint64_t ExtentKey(uint64_t seed, uint64_t id, uint64_t version) {
  uint64_t s = seed ^ (id << 32) ^ (version * 0xD1B54A32D192ED03ull);
  return flock::SplitMix64(s);
}

void FillExtent(uint8_t* dst, uint32_t bytes, uint64_t key) {
  for (uint32_t i = 0; i < bytes; i += 8) {
    const uint64_t w = key ^ (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull);
    std::memcpy(dst + i, &w, 8);
  }
}

bool ExtentMatches(const uint8_t* src, uint32_t bytes, uint64_t key) {
  for (uint32_t i = 0; i < bytes; i += 8) {
    const uint64_t w = key ^ (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull);
    if (std::memcmp(src + i, &w, 8) != 0) {
      return false;
    }
  }
  return true;
}

// Server-side CPU charge for touching `len` payload bytes (as extent_store).
Nanos TouchCost(uint32_t len) { return 300 + len / 64; }

flock::sim::Proc ExtentWorker(Ctx& ctx, int node, Connection* conn,
                              FlockThread* thread, int tid, Nanos offset,
                              uint32_t extent_bytes, std::vector<uint64_t> ids,
                              uint64_t data_seed, uint64_t choice_seed) {
  NodeLog& log = ctx.logs[static_cast<size_t>(node)];
  flock::Rng rng(choice_seed);
  std::vector<uint64_t> version(ids.size(), 0);
  std::vector<uint8_t> write_buf(8 + extent_bytes);
  std::vector<uint8_t> read_buf(extent_bytes);
  uint64_t ack = 0;
  if (offset > 0) {
    co_await flock::sim::Delay(*ctx.sim, offset);
  }
  for (uint64_t seq = 0;; ++seq) {
    const size_t slot = rng.NextBelow(ids.size());
    const uint64_t id = ids[slot];
    const bool is_read = rng.NextBelow(2) == 0;
    const Nanos t0 = ctx.sim->Now();
    PendingRpc* rpc = nullptr;
    uint64_t next_version = version[slot] + 1;
    if (is_read) {
      std::memcpy(write_buf.data(), &id, 8);
      rpc = co_await conn->SendRpc(*thread, kReadRpc,
                                   PayloadRef(write_buf.data(), 8),
                                   read_buf.data(), extent_bytes);
    } else {
      {
        ScopedSpan span(*ctx.tracer, "bench.extent_fill");
        std::memcpy(write_buf.data(), &id, 8);
        FillExtent(write_buf.data() + 8, extent_bytes,
                   ExtentKey(data_seed, id, next_version));
      }
      PayloadRef req;
      req.Add(write_buf.data(), 8);
      req.Add(write_buf.data() + 8, extent_bytes);
      rpc = co_await conn->SendRpc(*thread, kWriteRpc, req,
                                   reinterpret_cast<uint8_t*>(&ack), 8);
    }
    const Nanos t1 = ctx.sim->Now();
    const bool ok = co_await conn->AwaitResponse(*thread, rpc);
    const Nanos t2 = ctx.sim->Now();
    const uint32_t resp_len = ok ? rpc->response_len : 0;
    conn->FreeRpc(rpc);
    bool good = ok;
    if (is_read) {
      ScopedSpan span(*ctx.tracer, "bench.extent_verify");
      good = good && resp_len == extent_bytes &&
             ExtentMatches(read_buf.data(), extent_bytes,
                           ExtentKey(data_seed, id, version[slot]));
      if (!good) {
        NoteError(log, "extent read did not return the bytes last written");
      }
    } else {
      good = good && resp_len == 8 && ack == 1;
      if (good) {
        version[slot] = next_version;
      } else {
        NoteError(log, "extent write was not acknowledged");
      }
    }
    BookRpc(ctx, log, is_read ? Kind::kExtentRead : Kind::kExtentWrite,
            RpcId(node, tid, seq), t0, t1, t2, good,
            8ull + extent_bytes + (is_read ? 0 : 8));
  }
}

// ---------------------------------------------------------------------------
// Sessions (conn_churn): Join -> ConnectAsync -> RPC burst -> Close -> Leave
// ---------------------------------------------------------------------------

struct ChurnPlan {
  int server_node = 0;
  uint32_t lanes = 4;
  int rpcs = 4;
  Nanos gap = 0;
  uint32_t payload = 64;
  flock::ctrl::ControlPlane* cp = nullptr;
};

flock::sim::Proc SessionDriver(Ctx& ctx, const ChurnPlan& plan, FlockRuntime& rt,
                               FlockThread* thread, std::vector<int> sessions,
                               uint64_t key) {
  const int node = rt.node();
  NodeLog& log = ctx.logs[static_cast<size_t>(node)];
  std::vector<uint8_t> req(plan.payload);
  for (const int s : sessions) {
    const Nanos due = static_cast<Nanos>(s) * plan.gap;
    if (ctx.sim->Now() < due) {
      co_await flock::sim::Delay(*ctx.sim, due - ctx.sim->Now());
    }
    const Nanos start = ctx.sim->Now();
    {
      ScopedSpan span(*ctx.tracer, "ctrl.join");
      plan.cp->Join(node);
    }
    log.attempted += 1;
    Connection* conn = co_await rt.ConnectAsync(plan.server_node, plan.lanes);
    const Nanos connected = ctx.sim->Now();
    Nanos first = -1;
    if (conn == nullptr) {
      log.failed += 1;
      NoteError(log, "ConnectAsync was refused");
    } else {
      log.conns.push_back(conn);
      for (int i = 0; i < plan.rpcs; ++i) {
        Nanos done_at = 0;
        co_await EchoOnce(ctx, log, conn, thread, node, s,  req, key,
                          static_cast<uint64_t>(i), &done_at);
        if (i == 0) {
          first = done_at;
        }
      }
      // Step off the response dispatcher's stack before closing (the last
      // response resumed this coroutine from inside the dispatcher pass).
      co_await flock::sim::Delay(*ctx.sim, 1 * kMicrosecond);
      ScopedSpan span(*ctx.tracer, "flock.close_connection");
      rt.CloseConnection(conn);
    }
    {
      ScopedSpan span(*ctx.tracer, "ctrl.leave");
      plan.cp->Leave(node);
    }
    log.sessions_done += 1;
    log.last_done = ctx.sim->Now();
    log.connect.push_back(connected - start);
    if (first >= 0) {
      log.first_call.push_back(first - connected);
      log.ttfr.push_back(first - due);
    }
    if (ctx.trace) {
      log.spans.push_back(SimSpan{static_cast<uint64_t>(s), Kind::kSession,
                                  {due, connected, first, ctx.sim->Now()}});
    }
  }
}

// ---------------------------------------------------------------------------
// Counters captured around the measured window
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t events = 0, resumes = 0, direct_resumes = 0;
  uint64_t tx_msgs = 0, tx_bytes = 0, tx_wire_bytes = 0, tx_packets = 0;
  uint64_t cqes = 0, stale_drops = 0, remote_errors = 0;
  uint64_t server_qp_hits = 0, server_qp_misses = 0;
  uint64_t srv_requests = 0, srv_messages = 0, srv_responses = 0;
  uint64_t srv_credit_renewals = 0, srv_redistributions = 0;
  uint64_t srv_lane_failures = 0, srv_qps_built = 0;
  uint64_t cli_requests = 0, cli_messages = 0;
  uint64_t retries = 0, failed_rpcs = 0, cli_lane_failures = 0;
  uint64_t qps_created = 0, qps_recycled = 0;
  uint64_t ctrl_rejects = 0;

  Counters Since(const Counters& b) const {
    Counters d = *this;
    d.events -= b.events;
    d.resumes -= b.resumes;
    d.direct_resumes -= b.direct_resumes;
    d.tx_msgs -= b.tx_msgs;
    d.tx_bytes -= b.tx_bytes;
    d.tx_wire_bytes -= b.tx_wire_bytes;
    d.tx_packets -= b.tx_packets;
    d.cqes -= b.cqes;
    d.server_qp_hits -= b.server_qp_hits;
    d.server_qp_misses -= b.server_qp_misses;
    d.srv_requests -= b.srv_requests;
    d.srv_messages -= b.srv_messages;
    d.srv_responses -= b.srv_responses;
    d.srv_credit_renewals -= b.srv_credit_renewals;
    d.srv_redistributions -= b.srv_redistributions;
    d.cli_requests -= b.cli_requests;
    d.cli_messages -= b.cli_messages;
    // Failure counters, lane builds and stale drops stay whole-run totals.
    return d;
  }
};

struct World {
  Shape shape;
  std::unique_ptr<flock::verbs::Cluster> cluster;
  std::vector<std::unique_ptr<FlockRuntime>> servers;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
  std::vector<Connection*> conns;  // setup-phase connections
  std::vector<uint8_t> store;      // extent_mix backing store
  int lanes_at_setup = 0;
};

Counters Capture(World& w, Ctx& ctx) {
  Counters c;
  flock::sim::Simulator& sim = w.cluster->sim();
  c.events = sim.events_processed();
  c.resumes = sim.resumes();
  c.direct_resumes = sim.direct_resumes();
  for (int n = 0; n < w.cluster->num_nodes(); ++n) {
    flock::verbs::Device& dev = w.cluster->device(n);
    const flock::verbs::Device::Stats& d = dev.stats();
    c.tx_msgs += d.tx_msgs;
    c.tx_bytes += d.tx_bytes;
    c.tx_wire_bytes += d.tx_wire_bytes;
    c.tx_packets += d.tx_packets;
    c.cqes += d.cqes_dma_ed;
    c.stale_drops += d.tx_stale_drops;
    c.remote_errors += d.remote_errors;
    if (n < w.shape.servers) {
      c.server_qp_hits += dev.qp_cache().hits();
      c.server_qp_misses += dev.qp_cache().misses();
    }
  }
  for (const auto& s : w.servers) {
    const flock::ServerStats& st = s->server_stats();
    c.srv_requests += st.requests;
    c.srv_messages += st.messages;
    c.srv_responses += st.responses_sent;
    c.srv_credit_renewals += st.credit_renewals;
    c.srv_redistributions += st.redistributions;
    c.srv_lane_failures += st.lane_failures;
    c.srv_qps_built += st.qps_created + st.qps_recycled;
    c.qps_created += st.qps_created;
    c.qps_recycled += st.qps_recycled;
  }
  for (const auto& rt : w.clients) {
    const flock::ClientStats& st = rt->client_stats();
    c.retries += st.retries;
    c.failed_rpcs += st.failed_rpcs;
    c.cli_lane_failures += st.lane_failures;
    c.qps_created += st.qps_created;
    c.qps_recycled += st.qps_recycled;
  }
  const flock::ctrl::ControlPlane::Stats& cp =
      flock::ctrl::ControlPlane::For(*w.cluster).stats();
  c.ctrl_rejects = cp.rejected_malformed + cp.rejected_replay +
                   cp.rejected_no_endpoint + cp.rejected_not_member;
  std::vector<Connection*> all = w.conns;
  for (const NodeLog& log : ctx.logs) {
    all.insert(all.end(), log.conns.begin(), log.conns.end());
  }
  for (const Connection* conn : all) {
    c.cli_requests += conn->requests_sent();
    c.cli_messages += conn->messages_sent();
  }
  return c;
}

// Per-node device counters and completions, folded in node order (FNV-1a):
// a function of the simulated trace, not of the shard layout.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t FingerprintOf(World& w, const Ctx& ctx) {
  Fingerprint h;
  for (int n = 0; n < w.cluster->num_nodes(); ++n) {
    const flock::verbs::Device::Stats& d = w.cluster->device(n).stats();
    h.Mix(d.tx_msgs).Mix(d.tx_bytes).Mix(d.tx_wire_bytes).Mix(d.tx_packets);
    h.Mix(d.rx_msgs).Mix(d.rx_packets).Mix(d.cqes_dma_ed);
    const NodeLog& log = ctx.logs[static_cast<size_t>(n)];
    h.Mix(log.completed).Mix(log.sessions_done);
    for (const int64_t t : log.ttfr) {
      h.Mix(static_cast<uint64_t>(t));
    }
  }
  h.Mix(static_cast<uint64_t>(w.cluster->sim().Now()));
  return h.value();
}

// ---------------------------------------------------------------------------
// World construction
// ---------------------------------------------------------------------------

void RegisterEcho(FlockRuntime& rt) {
  rt.RegisterHandler(kEchoRpc, [](const uint8_t* req, uint32_t len, uint8_t* resp,
                                  uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 50;
    std::memcpy(resp, req, len);
    return len;
  });
}

void RegisterExtentStore(FlockRuntime& rt, std::vector<uint8_t>* store,
                         uint32_t extent_bytes) {
  const uint64_t num_extents = store->size() / extent_bytes;
  rt.RegisterHandler(kReadRpc, [store, extent_bytes, num_extents](
                                   const uint8_t* req, uint32_t len, uint8_t* resp,
                                   uint32_t, Nanos* cpu) -> uint32_t {
    FLOCK_CHECK_EQ(len, 8u);
    uint64_t id = 0;
    std::memcpy(&id, req, 8);
    FLOCK_CHECK_LT(id, num_extents);
    std::memcpy(resp, store->data() + id * extent_bytes, extent_bytes);
    *cpu = TouchCost(extent_bytes);
    return extent_bytes;
  });
  rt.RegisterHandler(kWriteRpc, [store, extent_bytes, num_extents](
                                    const uint8_t* req, uint32_t len, uint8_t* resp,
                                    uint32_t, Nanos* cpu) -> uint32_t {
    FLOCK_CHECK_EQ(len, 8 + extent_bytes);
    uint64_t id = 0;
    std::memcpy(&id, req, 8);
    FLOCK_CHECK_LT(id, num_extents);
    std::memcpy(store->data() + id * extent_bytes, req + 8, extent_bytes);
    *cpu = TouchCost(extent_bytes);
    const uint64_t ok = 1;
    std::memcpy(resp, &ok, 8);
    return 8;
  });
}

struct SetupTimes {
  double cluster_s = 0;
  double runtime_s = 0;   // runtime ctors, handlers, Start*
  double connect_s = 0;   // setup-phase Connect calls
};

double Since(int64_t t0) {
  return static_cast<double>(HostTracer::NowNs() - t0) / 1e9;
}

// CPU time of the whole process (user + system, every thread). The kernel
// leaves out the time other processes, or other guests of a virtual
// machine, held the CPU, so on a shared host it is the program's cost where
// wall time also counts its neighbours' load.
int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double CpuSince(int64_t t0) {
  return static_cast<double>(CpuNowNs() - t0) / 1e9;
}

// Builds the cluster, the runtimes and (except for conn_churn, which connects
// inside the simulation) the connections.
void Build(World& w, Ctx& ctx, int shards, int workers,
           SetupTimes* times, HostTracer& tracer) {
  const Shape& s = w.shape;
  const int nodes = s.servers + s.clients;
  ctx.logs.resize(static_cast<size_t>(nodes));

  FlockConfig config;  // the default configuration...
  flock::sim::CostModel cost;
  if (s.extent_bytes > 0) {
    // ...except that extent_mix turns segmentation on (with the per-packet
    // link arbitration the chunk trains are designed for).
    config.max_payload = 8 + s.extent_bytes;
    config.segment_threshold = 8 * 1024;
    cost.link_arb_quantum_bytes = cost.mtu_bytes;
  }

  int64_t t = HostTracer::NowNs();
  {
    ScopedSpan span(tracer, "verbs.cluster_ctor");
    w.cluster = std::make_unique<flock::verbs::Cluster>(flock::verbs::Cluster::Config{
        .num_nodes = nodes,
        .cores_per_node = s.cores_per_node,
        .cost = cost,
        .num_shards = shards,
        .num_workers = workers});
  }
  times->cluster_s = Since(t);
  ctx.sim = &w.cluster->sim();

  t = HostTracer::NowNs();
  for (int n = 0; n < s.servers; ++n) {
    {
      ScopedSpan span(tracer, "flock.runtime_ctor");
      w.servers.push_back(std::make_unique<FlockRuntime>(*w.cluster, n, config));
    }
    ScopedSpan span(tracer, "flock.start_server");
    RegisterEcho(*w.servers.back());
    if (s.extent_bytes > 0) {
      RegisterExtentStore(*w.servers.back(), &w.store, s.extent_bytes);
    }
    w.servers.back()->StartServer(4);
  }
  for (int c = 0; c < s.clients; ++c) {
    {
      ScopedSpan span(tracer, "flock.runtime_ctor");
      w.clients.push_back(
          std::make_unique<FlockRuntime>(*w.cluster, s.servers + c, config));
    }
    ScopedSpan span(tracer, "flock.start_client");
    w.clients.back()->StartClient();
  }
  times->runtime_s = Since(t);

  if (s.sessions > 0) {
    return;  // conn_churn connects inside the simulation
  }

  // Client nodes take the servers round-robin. The placement is not seeded:
  // which nodes share a server decides the cross-shard traffic, and with it
  // the host cost of a run.
  t = HostTracer::NowNs();
  const int threads = s.threads_per_client + s.extent_threads;
  const uint32_t lanes = s.lanes > 0 ? s.lanes : static_cast<uint32_t>(threads);
  for (int c = 0; c < s.clients; ++c) {
    ScopedSpan span(tracer, "flock.connect");
    w.conns.push_back(w.clients[static_cast<size_t>(c)]->Connect(
        *w.servers[static_cast<size_t>(c % s.servers)], lanes));
    w.lanes_at_setup += static_cast<int>(w.conns.back()->num_lanes());
  }
  times->connect_s = Since(t);
}

void SpawnLoad(World& w, Ctx& ctx, uint64_t seed, HostTracer& tracer) {
  ScopedSpan span(tracer, "sim.spawn");
  const Shape& s = w.shape;
  flock::Rng rng(seed);
  // Start offsets spread the first requests over 20 us.
  auto offset = [&rng] { return static_cast<Nanos>(rng.NextBelow(20000)); };
  for (int c = 0; c < s.clients; ++c) {
    const int node = s.servers + c;
    FlockRuntime& rt = *w.clients[static_cast<size_t>(c)];
    Connection* conn = w.conns[static_cast<size_t>(c)];
    int tid = 0;
    for (int t = 0; t < s.threads_per_client; ++t, ++tid) {
      ctx.sim->Spawn(EchoWorker(ctx, node, conn, rt.CreateThread(tid), tid,
                                offset(), s.payload, rng.Next()),
                     node);
    }
    for (int t = 0; t < s.extent_threads; ++t, ++tid) {
      std::vector<uint64_t> ids;
      for (int k = 0; k < s.extents_per_thread; ++k) {
        ids.push_back(static_cast<uint64_t>(t * s.extents_per_thread + k));
      }
      ctx.sim->Spawn(ExtentWorker(ctx, node, conn, rt.CreateThread(tid), tid,
                                  offset(), s.extent_bytes, std::move(ids), seed,
                                  rng.Next()),
                     node);
    }
  }
}

// conn_churn's load: one session driver per client node.
void SpawnSessions(World& w, Ctx& ctx, ChurnPlan* plan, uint64_t seed,
                   HostTracer& tracer) {
  ScopedSpan span(tracer, "sim.spawn");
  const Shape& s = w.shape;
  plan->lanes = s.lanes;
  plan->rpcs = s.rpcs_per_session;
  plan->gap = s.session_gap;
  plan->payload = s.payload;
  plan->cp = &flock::ctrl::ControlPlane::For(*w.cluster);
  // Client nodes start outside the cluster; each session Joins and Leaves.
  for (int c = 0; c < s.clients; ++c) {
    plan->cp->Leave(s.servers + c);
  }
  // Session placement: every round of `clients` sessions visits each client
  // node once, in a seeded order.
  std::vector<std::vector<int>> per_node(static_cast<size_t>(s.clients));
  flock::Rng place(seed ^ 0x51ACE5EEDull);
  for (int round = 0; round * s.clients < s.sessions; ++round) {
    std::vector<int> order(static_cast<size_t>(s.clients));
    for (int c = 0; c < s.clients; ++c) {
      order[static_cast<size_t>(c)] = c;
    }
    for (int c = s.clients - 1; c > 0; --c) {
      std::swap(order[static_cast<size_t>(c)],
                order[place.NextBelow(static_cast<uint64_t>(c) + 1)]);
    }
    for (int k = 0; k < s.clients; ++k) {
      const int session = round * s.clients + k;
      if (session < s.sessions) {
        per_node[static_cast<size_t>(order[static_cast<size_t>(k)])].push_back(session);
      }
    }
  }
  flock::Rng keys(seed);
  for (int c = 0; c < s.clients; ++c) {
    FlockRuntime& rt = *w.clients[static_cast<size_t>(c)];
    ctx.sim->Spawn(SessionDriver(ctx, *plan, rt, rt.CreateThread(2),
                                 per_node[static_cast<size_t>(c)], keys.Next()),
                   rt.node());
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') {
        esc += '\\';
      }
      esc += ch;
    }
    Raw(key, "\"" + esc + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ");
    body_ += "\"" + key + "\": " + v;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  int shards = -1;
  int workers = 1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", a.c_str());
      return false;
    }
    const std::string key = a.substr(2, eq - 2);
    const std::string val = a.substr(eq + 1);
    if (key == "workload") {
      o->workload = val;
    } else if (key == "seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "trace") {
      o->trace = val == "1";
    } else if (key == "shards") {
      o->shards = std::atoi(val.c_str());
    } else if (key == "workers") {
      o->workers = std::atoi(val.c_str());
    } else if (key == "spans-out") {
      o->spans_out = val;
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  return !o->workload.empty();
}

std::vector<int64_t> Merged(const Ctx& ctx, std::vector<int64_t> NodeLog::* field) {
  std::vector<int64_t> all;
  for (const NodeLog& log : ctx.logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

void WriteSpans(const std::string& path, const HostTracer& tracer, const Ctx& ctx) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "{\"clock\": \"host\", \"id\": %zu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}\n",
                 i, spans[i].name.c_str(),
                 static_cast<long long>(spans[i].start_ns - spans[0].start_ns),
                 static_cast<long long>(spans[i].end_ns - spans[0].start_ns),
                 spans[i].parent);
  }
  static const char* kKinds[] = {"rpc.echo", "rpc.extent_read", "rpc.extent_write",
                                 "session"};
  for (const NodeLog& log : ctx.logs) {
    for (const SimSpan& s : log.spans) {
      std::fprintf(f, "{\"clock\": \"sim\", \"id\": %llu, \"name\": \"%s\", "
                   "\"t_ns\": [%lld, %lld, %lld, %lld]}\n",
                   static_cast<unsigned long long>(s.id),
                   kKinds[static_cast<int>(s.kind)], static_cast<long long>(s.t[0]),
                   static_cast<long long>(s.t[1]), static_cast<long long>(s.t[2]),
                   static_cast<long long>(s.t[3]));
    }
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Options opt;
  Shape shape;
  if (!ParseArgs(argc, argv, &opt) || !MakeShape(opt.workload, &shape)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=<fanin_echo|scale_out|"
                 "extent_mix|conn_churn> --seed=<n> [--trace=0|1] [--shards=<n>] "
                 "[--workers=<n>] [--spans-out=<file>]\n");
    return 2;
  }
  HostTracer tracer(opt.trace);
  const int root = tracer.Begin("bench.process");
  const int shards = std::min(opt.shards > 0 ? opt.shards : shape.shards,
                              shape.servers + shape.clients);
  const int workers = std::max(1, std::min(opt.workers, shards));
  // Host spans opened from simulated processes assume one executing thread.
  if (opt.trace && workers > 1 && (shape.sessions > 0 || shape.extent_threads > 0)) {
    std::fprintf(stderr, "%s records host spans inside the simulation: trace it "
                 "with one worker\n", shape.name.c_str());
    return 2;
  }

  Ctx ctx;
  ctx.trace = opt.trace;
  ctx.tracer = &tracer;
  World w;
  w.shape = shape;
  const int64_t rss_before_kb = SelfStatusKb("VmRSS");

  SetupTimes setup;
  const int build_span = tracer.Begin("bench.setup");
  if (shape.extent_bytes > 0) {
    ScopedSpan span(tracer, "bench.store_init");
    const int ids = shape.extent_threads * shape.extents_per_thread;
    w.store.resize(static_cast<size_t>(ids) * shape.extent_bytes);
    for (int id = 0; id < ids; ++id) {
      FillExtent(w.store.data() + static_cast<size_t>(id) * shape.extent_bytes,
                 shape.extent_bytes, ExtentKey(opt.seed, static_cast<uint64_t>(id), 0));
    }
  }
  Build(w, ctx, shards, workers, &setup, tracer);

  ChurnPlan plan;  // outlives the simulation: sessions hold it by reference
  if (shape.sessions > 0) {
    SpawnSessions(w, ctx, &plan, opt.seed, tracer);
  } else {
    SpawnLoad(w, ctx, opt.seed, tracer);
  }
  tracer.End(build_span);
  const double setup_s = CpuSince(0);  // process CPU time since exec
  const int64_t rss_setup_kb = SelfStatusKb("VmRSS");

  // Warm up, then measure a fixed span of simulated time (conn_churn: until
  // every session has finished).
  {
    ScopedSpan span(tracer, "sim.warmup");
    ctx.sim->RunFor(shape.warmup);
  }
  ctx.win.start = ctx.sim->Now();
  ctx.win.end = shape.sessions > 0 ? INT64_MAX : ctx.win.start + shape.measure;
  const Counters before = Capture(w, ctx);
  // The window runs in chunks; the host rate is the median chunk's, so a
  // burst of load from other processes moves it little. The rate is per CPU
  // second; the wall-clock rate is reported beside it for the shard speedup.
  std::vector<double> chunk_rates, chunk_wall_rates;
  auto run_chunk = [&ctx, &chunk_rates, &chunk_wall_rates](Nanos span) {
    const int64_t t = HostTracer::NowNs();
    const int64_t c = CpuNowNs();
    ctx.sim->RunFor(span);
    chunk_rates.push_back(static_cast<double>(span) / 1e6 / CpuSince(c));
    chunk_wall_rates.push_back(static_cast<double>(span) / 1e6 / Since(t));
  };
  const int64_t t_measure = HostTracer::NowNs();
  const int64_t c_measure = CpuNowNs();
  {
    ScopedSpan span(tracer, "sim.measure");
    if (shape.sessions > 0) {
      const Nanos cap = static_cast<Nanos>(shape.sessions) * shape.session_gap +
                        200 * kMillisecond;
      auto done = [&ctx] {
        uint64_t d = 0;
        for (const NodeLog& log : ctx.logs) {
          d += log.sessions_done;
        }
        return d;
      };
      while (done() < static_cast<uint64_t>(shape.sessions) && ctx.sim->Now() < cap) {
        run_chunk(1 * kMillisecond);
      }
    } else {
      for (int i = 0; i < kMeasureChunks; ++i) {
        run_chunk(shape.measure / kMeasureChunks);
      }
    }
  }
  const double measure_host_s = CpuSince(c_measure);
  const double measure_wall_s = Since(t_measure);
  // Simulated span the traffic covers: the fixed window, or for conn_churn
  // the time until the last session closed.
  Nanos traffic_end = ctx.sim->Now();
  if (shape.sessions > 0) {
    traffic_end = ctx.win.start;
    for (const NodeLog& log : ctx.logs) {
      traffic_end = std::max(traffic_end, log.last_done);
    }
  }
  const Nanos measured_sim_ns = traffic_end - ctx.win.start;
  std::sort(chunk_rates.begin(), chunk_rates.end());
  std::sort(chunk_wall_rates.begin(), chunk_wall_rates.end());
  // conn_churn's chunks differ in the work they hold, so its rate is the
  // whole window's.
  const double window_sim_ms = static_cast<double>(ctx.sim->Now() - ctx.win.start) / 1e6;
  const double sim_ms_per_cpu_s = shape.sessions > 0
                                      ? window_sim_ms / measure_host_s
                                      : QuantileOf(chunk_rates, 0.5).value;
  const double sim_ms_per_wall_s = shape.sessions > 0
                                       ? window_sim_ms / measure_wall_s
                                       : QuantileOf(chunk_wall_rates, 0.5).value;

  const int collect_span = tracer.Begin("bench.collect");
  const Counters d = Capture(w, ctx).Since(before);
  const uint64_t fingerprint = FingerprintOf(w, ctx);
  uint32_t active_lanes = 0;
  for (const auto& srv : w.servers) {
    active_lanes += srv->ActiveServerLanes();
  }
  tracer.End(collect_span);

  double teardown_s = 0;
  {
    ScopedSpan span(tracer, "bench.teardown");
    const int64_t t = HostTracer::NowNs();
    {
      ScopedSpan s2(tracer, "flock.runtime_dtor");
      w.clients.clear();
      w.servers.clear();
    }
    {
      ScopedSpan s2(tracer, "verbs.cluster_dtor");
      w.cluster.reset();
    }
    teardown_s = Since(t);
  }

  const int summarize_span = tracer.Begin("bench.summarize");
  uint64_t attempted = 0, failed = 0, window_rpcs = 0, window_bytes = 0;
  uint64_t sessions_done = 0;
  std::vector<std::string> errors;
  for (size_t n = 0; n < ctx.logs.size(); ++n) {
    const NodeLog& log = ctx.logs[n];
    attempted += log.attempted;
    failed += log.failed;
    window_rpcs += log.window_rpcs;
    window_bytes += log.window_payload_bytes;
    sessions_done += log.sessions_done;
    for (const std::string& e : log.errors) {
      errors.push_back("node " + std::to_string(n) + ": " + e);
    }
  }
  const bool churn = shape.sessions > 0;
  const std::vector<int64_t> latency =
      Merged(ctx, churn ? &NodeLog::ttfr : &NodeLog::latency);
  const std::vector<int64_t> send_wait = Merged(ctx, &NodeLog::send_wait);
  const std::vector<int64_t> await = Merged(ctx, &NodeLog::await);
  const std::vector<int64_t> extents = Merged(ctx, &NodeLog::extent_latency);
  const std::vector<int64_t> connect = Merged(ctx, &NodeLog::connect);
  const std::vector<int64_t> first_call = Merged(ctx, &NodeLog::first_call);

  if (churn && sessions_done != static_cast<uint64_t>(shape.sessions)) {
    errors.push_back("only " + std::to_string(sessions_done) + " of " +
                     std::to_string(shape.sessions) + " sessions completed");
  }
  if (failed > 0) {
    errors.push_back(std::to_string(failed) + " operations failed");
  }
  if (attempted == 0) {
    errors.push_back("no operation was attempted");
  }
  const uint64_t lane_failures =
      d.cli_lane_failures +
      (churn ? (d.srv_lane_failures > d.srv_qps_built
                    ? d.srv_lane_failures - d.srv_qps_built
                    : 0)
             : d.srv_lane_failures);
  if (d.retries + d.failed_rpcs + lane_failures > 0) {
    errors.push_back("the fault-free run retried, failed RPCs or lost lanes");
  }
  if (d.ctrl_rejects > 0) {
    errors.push_back(std::to_string(d.ctrl_rejects) + " control-plane rejects");
  }

  const double sim_s = static_cast<double>(measured_sim_ns) / 1e9;
  const Quantile p50 = QuantileOf(latency, 0.50);
  const Quantile p99 = QuantileOf(latency, 0.99);
  if (!p99.ok) {
    errors.push_back("sim_p99_us rests on " + std::to_string(p99.samples) +
                     " samples: fewer than " + std::to_string(kMinBeyond) +
                     " lie beyond it");
  }
  const Quantile sw50 = QuantileOf(send_wait, 0.50);
  const Quantile sw99 = QuantileOf(send_wait, 0.99);
  const Quantile aw50 = QuantileOf(await, 0.50);
  const Quantile aw99 = QuantileOf(await, 0.99);
  const Quantile ex50 = QuantileOf(extents, 0.50);
  const Quantile cn50 = QuantileOf(connect, 0.50);
  const Quantile cn99 = QuantileOf(connect, 0.99);
  const Quantile fc50 = QuantileOf(first_call, 0.50);
  const double rpcs = static_cast<double>(window_rpcs);

  JsonOut m;  // end-to-end metrics of this process
  m.Num("setup_s", setup_s);
  m.Num("sim_ms_per_cpu_s", sim_ms_per_cpu_s);
  m.Num("sim_mops", Ratio(rpcs, sim_s) / 1e6);
  m.Num("sim_p50_us", p50.value / 1e3);
  m.Num("sim_p99_us", p99.value / 1e3);
  m.Num("sim_goodput_gbps", Ratio(static_cast<double>(window_bytes) * 8, sim_s) / 1e9);

  JsonOut l;  // per-layer metrics
  l.Num("sim.events_per_rpc", Ratio(static_cast<double>(d.events), rpcs));
  l.Num("sim.resumes_per_rpc", Ratio(static_cast<double>(d.resumes), rpcs));
  l.Num("sim.direct_resume_frac",
        Ratio(static_cast<double>(d.direct_resumes), static_cast<double>(d.resumes)));
  l.Num("sim.host_ns_per_event",
        Ratio(measure_host_s * 1e9, static_cast<double>(d.events)));
  l.Num("sim.host_ms_per_sim_ms", Ratio(1, sim_ms_per_cpu_s) * 1e3);
  l.Num("verbs.cluster_build_s", setup.cluster_s);
  l.Num("flock.runtime_start_s", setup.runtime_s);
  l.Num("flock.connect_s", setup.connect_s);
  l.Num("flock.connect_us_per_lane",
        Ratio(setup.connect_s * 1e6, static_cast<double>(w.lanes_at_setup)));
  l.Num("world.rss_setup_mb", static_cast<double>(rss_setup_kb) / 1024);
  const uint64_t lanes_built = churn ? d.qps_created + d.qps_recycled
                                     : static_cast<uint64_t>(w.lanes_at_setup);
  const int64_t rss_peak_kb = SelfStatusKb("VmHWM");
  l.Num("fabric.rss_kb_per_lane",
        Ratio(static_cast<double>((churn ? rss_peak_kb : rss_setup_kb) - rss_before_kb),
              static_cast<double>(lanes_built)));
  l.Num("world.teardown_s", teardown_s);
  l.Num("verbs.msgs_per_rpc", Ratio(static_cast<double>(d.tx_msgs), rpcs));
  l.Num("verbs.packets_per_rpc", Ratio(static_cast<double>(d.tx_packets), rpcs));
  l.Num("verbs.payload_wire_ratio", Ratio(static_cast<double>(d.tx_bytes),
                                          static_cast<double>(d.tx_wire_bytes)));
  l.Num("verbs.cqes_per_rpc", Ratio(static_cast<double>(d.cqes), rpcs));
  l.Num("verbs.stale_drops", static_cast<double>(d.stale_drops));
  l.Num("verbs.remote_errors", static_cast<double>(d.remote_errors));
  l.Num("rnic.qp_cache_miss_ratio",
        Ratio(static_cast<double>(d.server_qp_misses),
              static_cast<double>(d.server_qp_hits + d.server_qp_misses)));
  l.Num("flock.combine.coalescing", Ratio(static_cast<double>(d.cli_requests),
                                          static_cast<double>(d.cli_messages)));
  l.Num("flock.combine.send_wait_us_p50", sw50.value / 1e3);
  l.Num("flock.combine.send_wait_us_p99", sw99.value / 1e3);
  l.Num("flock.rpc.await_us_p50", aw50.value / 1e3);
  l.Num("flock.rpc.await_us_p99", aw99.value / 1e3);
  l.Num("flock.sched.active_lanes", active_lanes);
  l.Num("flock.sched.redistributions", static_cast<double>(d.srv_redistributions));
  l.Num("flock.sched.credit_renewals_per_msg",
        Ratio(static_cast<double>(d.srv_credit_renewals),
              static_cast<double>(d.srv_messages)));
  l.Num("flock.dispatch.server_coalescing", Ratio(static_cast<double>(d.srv_requests),
                                                  static_cast<double>(d.srv_messages)));
  l.Num("flock.dispatch.responses_per_request",
        Ratio(static_cast<double>(d.srv_responses), static_cast<double>(d.srv_requests)));
  l.Num("flock.segment.extent_us_p50", ex50.value / 1e3);
  l.Num("flock.segment.extent_ops", static_cast<double>(extents.size()));
  l.Num("ctrl.connect_us_p50", cn50.value / 1e3);
  l.Num("ctrl.connect_us_p99", cn99.value / 1e3);
  l.Num("ctrl.first_call_us_p50", fc50.value / 1e3);
  const double sessions = static_cast<double>(sessions_done);
  l.Num("flock.lane.qps_created_per_session",
        Ratio(static_cast<double>(d.qps_created), sessions));
  l.Num("flock.lane.qps_recycled_per_session",
        Ratio(static_cast<double>(d.qps_recycled), sessions));
  l.Num("ctrl.rejects", static_cast<double>(d.ctrl_rejects));
  l.Num("flock.retries", static_cast<double>(d.retries));
  l.Num("flock.failed_rpcs", static_cast<double>(d.failed_rpcs));
  l.Num("flock.lane_failures", static_cast<double>(lane_failures));
  l.Num("fail_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)));

  JsonOut samples;  // sample count behind each percentile
  auto add_samples = [&samples](const char* name, const Quantile& q) {
    samples.Raw(name, "{\"n\": " + std::to_string(q.samples) +
                          ", \"beyond\": " + std::to_string(q.beyond) + "}");
  };
  add_samples("sim_p50_us", p50);
  add_samples("sim_p99_us", p99);
  add_samples("flock.combine.send_wait_us_p99", sw99);
  add_samples("flock.rpc.await_us_p99", aw99);
  add_samples("flock.segment.extent_us_p50", ex50);
  add_samples("ctrl.connect_us_p99", cn99);
  add_samples("ctrl.first_call_us_p50", fc50);
  tracer.End(summarize_span);

  if (opt.trace && !opt.spans_out.empty()) {
    ScopedSpan span(tracer, "bench.write_spans");
    WriteSpans(opt.spans_out, tracer, ctx);
  }

  JsonOut out;
  out.Str("workload", shape.name);
  out.Num("seed", static_cast<double>(opt.seed));
  out.Num("shards", shards);
  out.Num("workers", workers);
  out.Str("fingerprint", std::to_string(fingerprint));
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("measure_host_s", measure_host_s);
  out.Num("sim_ms_per_wall_s", sim_ms_per_wall_s);
  out.Num("measure_sim_ms", sim_s * 1e3);
  out.Num("peak_rss_mb", static_cast<double>(rss_peak_kb) / 1024);
  out.Num("sessions", static_cast<double>(sessions_done));
  out.Raw("metrics", m.Done());
  out.Raw("layers", l.Done());
  out.Raw("samples", samples.Done());
  if (opt.trace) {
    tracer.End(root);
    // Per-layer self time, and the parts of the process no span covers.
    const auto& spans = tracer.spans();
    std::vector<std::pair<std::string, double>> self;
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string layer = HostTracer::LayerOf(spans[i].name);
      const double ms = static_cast<double>(tracer.SelfNs(static_cast<int>(i))) / 1e6;
      auto it = std::find_if(self.begin(), self.end(),
                             [&](const auto& e) { return e.first == layer; });
      if (it == self.end()) {
        self.emplace_back(layer, ms);
      } else {
        it->second += ms;
      }
    }
    JsonOut self_ms;
    for (const auto& [layer, ms] : self) {
      self_ms.Num(layer, ms);
    }
    // The root span's self time is exactly the uncovered part of main();
    // name each gap by its neighbours.
    std::vector<std::pair<int64_t, int64_t>> top;
    std::vector<int> top_ids;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == root) {
        top.emplace_back(spans[i].start_ns, spans[i].end_ns);
        top_ids.push_back(static_cast<int>(i));
      }
    }
    const HostTracer::Span& r = spans[static_cast<size_t>(root)];
    std::string gaps;
    for (const auto& [a, b] : Gaps(top, r.start_ns, r.end_ns)) {
      std::string after = "process start", before = "process end";
      for (const int id : top_ids) {
        const HostTracer::Span& s = spans[static_cast<size_t>(id)];
        if (s.end_ns <= a) {
          after = s.name;
        }
        if (s.start_ns >= b && before == "process end") {
          before = s.name;
        }
      }
      gaps += std::string(gaps.empty() ? "" : ", ") + "{\"between\": \"" + after +
              " .. " + before + "\", \"ms\": " +
              std::to_string(static_cast<double>(b - a) / 1e6) + "}";
    }
    out.Raw("self_ms", self_ms.Done());
    out.Num("main_s", static_cast<double>(r.end_ns - r.start_ns) / 1e9);
    out.Num("main_uncovered_s", static_cast<double>(tracer.SelfNs(root)) / 1e9);
    out.Raw("gaps", "[" + gaps + "]");
    out.Num("host_spans", static_cast<double>(spans.size()));
    double close_ms = 0;
    for (const HostTracer::Span& sp : spans) {
      if (sp.name == "flock.close_connection") {
        close_ms += static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
      }
    }
    out.Num("close_ms", close_ms);
  }
  std::string errs;
  for (const std::string& e : errors) {
    JsonOut one;
    one.Str("e", e);
    errs += std::string(errs.empty() ? "" : ", ") + one.Done();
  }
  out.Raw("errors", "[" + errs + "]");
  out.Raw("correct", errors.empty() ? "true" : "false");
  std::printf("%s\n", out.Done().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
