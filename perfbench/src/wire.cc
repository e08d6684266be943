// The two wire-served workloads: a paper trace replayed over loopback
// sockets against a NetServer, by two client connections. Untraced runs
// measure the end-to-end metrics; traced runs add the layer ladder —
// the same stream and server shape replayed through Policy::AccessBatch,
// then in-process CacheServer::Submit, then WireClient::Call — and
// record spans around every call the benchmark makes into a layer.
#include <thread>

#include "bench.h"
#include "server/cache_server.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"
#include "server/net/wire_format.h"
#include "sim/policy_factory.h"
#include "sweep/trace_cache.h"

namespace perfbench {
namespace {

using clic::CacheStats;
using clic::PolicyKind;
using clic::Request;
using clic::Trace;
using clic::server::CacheServer;
using clic::server::ServerOptions;
using clic::server::SubmitResult;
using clic::server::net::NetServer;
using clic::server::net::NetServerOptions;
using clic::server::net::WireClient;

struct WireWorkload {
  const char* name;
  const char* trace;
  PolicyKind policy;
  std::size_t batch;
  double ol_rate;      // the fixed open-loop offered load, req/s
  double nominal_rps;  // sizes the closed-loop phase; never measured
};

// tpcc-clic-wire: the paper's headline configuration served as a storage
// server serves it; every serving layer does real work. tpch-lru-wire-b8:
// ~2 requests per shard drain, so per-frame costs dominate and a policy
// change should leave it unchanged. Open-loop rates sit at about a fifth
// of the measured saturation.
constexpr WireWorkload kWorkloads[] = {
    {"tpcc-clic-wire", "DB2_C60", PolicyKind::kClic, 64, 500'000, 2.4e6},
    {"tpch-lru-wire-b8", "DB2_H80", PolicyKind::kLru, 8, 100'000, 4.7e5},
};

constexpr std::size_t kShards = 4;
constexpr std::size_t kClients = 2;
constexpr std::size_t kCachePages = 12'000;
constexpr unsigned kConsumers = 2;
// Share of --seconds each timed phase (closed loop, open loop) is sized
// for. Phases replay whole passes, so the real share varies with speed.
constexpr double kPhaseShare = 0.4;
// Segments per pass, each driven by freshly started client threads.
constexpr std::size_t kSegments = 16;

/// One client batch: a slice of the stream with a stream-wide id, so the
/// spans of one batch match across rungs.
struct Batch {
  const Request* reqs;
  std::size_t n;
  std::uint64_t id;
};

/// Outcome slots of the exact client-side ledger.
enum Outcome { kApplied, kShed, kTimedOut, kExpired, kStopped, kConnLost, kOutcomes };

struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t requests[kOutcomes] = {};
  void Add(const Tally& o) {
    submitted += o.submitted;
    for (int i = 0; i < kOutcomes; ++i) requests[i] += o.requests[i];
  }
  std::uint64_t not_applied() const { return submitted - requests[kApplied]; }
};

Outcome FromWire(std::uint16_t code) {
  switch (code) {
    case clic::server::net::kWireApplied: return kApplied;
    case clic::server::net::kWireShed: return kShed;
    case clic::server::net::kWireTimedOut: return kTimedOut;
    case clic::server::net::kWireExpired: return kExpired;
    case clic::server::net::kWireStopped: return kStopped;
    default: return kConnLost;  // transport loss or a typed error frame
  }
}

Outcome FromSubmit(SubmitResult r) {
  switch (r) {
    case SubmitResult::kApplied: return kApplied;
    case SubmitResult::kShed: return kShed;
    case SubmitResult::kTimedOut: return kTimedOut;
    case SubmitResult::kExpired: return kExpired;
    default: return kStopped;
  }
}

/// What one phase (all its passes, both clients) produced.
struct PhaseResult {
  Tally tally;
  std::vector<double> lat_us;      // per batch; open loop: from the due time
  std::vector<double> late_us;     // open loop: generator lateness per send
  std::vector<double> seg_rps;     // applied req/s per segment
  std::vector<double> seg_p50_us;  // median batch latency per segment
};

/// Drives one whole pass of each client's batches, one thread per
/// client, through `send(client, batch) -> Outcome`. Closed loop when
/// `interval_ns` is 0; otherwise open loop, each client sending one
/// batch every `interval_ns` and every batch timed from its scheduled
/// send time. The pass runs as kSegments segments, each on freshly
/// started client threads: where the scheduler places those threads
/// moves a segment's numbers by up to ~15%, so the phase reports the
/// median over many independently placed segments rather than one
/// placement. Traced, each client's calls of a segment are children of
/// a "segment" span.
template <typename Send>
PhaseResult Drive(const std::vector<std::vector<Batch>>& client_batches, double interval_ns,
                  Send&& send, Tracer* tracer, const char* span_name) {
  const std::size_t clients = client_batches.size();
  std::vector<SpanLog*> logs(clients, nullptr);
  for (std::size_t c = 0; c < clients; ++c) {
    logs[c] = tracer ? tracer->NewLog(true) : nullptr;
    if (logs[c]) logs[c]->Reserve(client_batches[c].size() + kSegments);
  }
  PhaseResult out;
  std::vector<PhaseResult> per(clients);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const std::int64_t start = NowNs() + (interval_ns > 0 ? 1'000'000 : 0);
    auto run_client = [&](std::size_t c) {
      PhaseResult& me = per[c];
      me.lat_us.clear();
      const std::vector<Batch>& all = client_batches[c];
      const std::size_t lo = all.size() * seg / kSegments;
      const std::size_t hi = all.size() * (seg + 1) / kSegments;
      std::unique_ptr<Pacer> pacer;
      if (interval_ns > 0) {
        // Client schedules are staggered evenly across one interval.
        pacer = std::make_unique<Pacer>(
            start + static_cast<std::int64_t>(interval_ns * static_cast<double>(c) /
                                              static_cast<double>(clients)),
            interval_ns);
      }
      const std::uint64_t seg_span = OpenSpan(logs[c], "segment");
      for (std::size_t i = lo; i < hi; ++i) {
        const Batch& b = all[i];
        const std::int64_t due = pacer ? pacer->Wait(i - lo) : 0;
        const std::int64_t t0 = NowNs();
        const Outcome o = send(c, b);
        const std::int64_t t1 = NowNs();
        if (logs[c]) logs[c]->Add(span_name, seg_span, b.id, t0, t1);
        me.lat_us.push_back(static_cast<double>(t1 - (pacer ? due : t0)) * 1e-3);
        me.tally.submitted += b.n;
        me.tally.requests[o] += b.n;
      }
      CloseSpan(logs[c], seg_span);
      if (pacer) me.late_us = pacer->late_us();
    };
    std::uint64_t applied_before = 0;
    for (const PhaseResult& r : per) applied_before += r.tally.requests[kApplied];
    std::vector<std::thread> threads;
    const std::int64_t t0 = NowNs();
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(run_client, c);
    for (std::thread& t : threads) t.join();
    const std::int64_t t1 = NowNs();
    std::uint64_t applied = 0;
    std::vector<double> seg_lat;
    for (PhaseResult& r : per) {
      applied += r.tally.requests[kApplied];
      seg_lat.insert(seg_lat.end(), r.lat_us.begin(), r.lat_us.end());
      out.late_us.insert(out.late_us.end(), r.late_us.begin(), r.late_us.end());
      r.late_us.clear();
    }
    out.seg_rps.push_back(static_cast<double>(applied - applied_before) / Seconds(t1 - t0));
    out.seg_p50_us.push_back(Median(seg_lat));
    out.lat_us.insert(out.lat_us.end(), seg_lat.begin(), seg_lat.end());
  }
  for (const PhaseResult& r : per) out.tally.Add(r.tally);
  return out;
}

void CheckClientLedger(const char* phase, const Tally& t) {
  std::uint64_t sum = 0;
  for (std::uint64_t r : t.requests) sum += r;
  if (sum != t.submitted) {
    Fail(std::string(phase) + ": client ledger: submitted " +
         std::to_string(t.submitted) + " != outcomes " + std::to_string(sum));
  }
}

/// Server-side wire ledger after Drain: every request of every well-formed
/// frame reached Submit, no frame was rejected, and what the server
/// applied is what the clients were told was applied.
void CheckServerLedger(const char* phase, const NetServer& server, const Tally& t) {
  const auto net = server.Stats();
  const auto adm = server.cache().TotalAdmission();
  if (net.frame_requests != adm.submitted_requests || net.frames != adm.submitted_batches) {
    Fail(std::string(phase) + ": frame_requests " + std::to_string(net.frame_requests) +
         " != submitted_requests " + std::to_string(adm.submitted_requests));
  }
  if (net.rejected_frames != 0 || adm.applied_requests != t.requests[kApplied] ||
      adm.submitted_requests != t.submitted - t.requests[kConnLost]) {
    Fail(std::string(phase) + ": server ledger disagrees with the client tally");
  }
}

ServerOptions MakeServerOptions(const WireWorkload& w, bool deterministic) {
  ServerOptions o;
  o.shards = kShards;
  o.cache_pages = kCachePages;
  o.policy = w.policy;  // o.clic defaults to the paper's Section 6.1 options
  o.deterministic = deterministic;
  o.consumers = deterministic ? 1 : kConsumers;
  return o;
}

NetServerOptions MakeNetOptions(const WireWorkload& w, bool deterministic) {
  NetServerOptions o;
  o.io_threads = 1;
  o.conn_limit = kClients;
  o.server = MakeServerOptions(w, deterministic);
  return o;
}

/// A running server plus one connected client per load thread.
struct WireStack {
  std::unique_ptr<NetServer> server;
  std::vector<std::unique_ptr<WireClient>> clients;

  void Start(const WireWorkload& w, SpanLog* log, std::uint64_t parent) {
    Traced(log, "NetServer::NetServer", parent, 0,
           [&] { server = std::make_unique<NetServer>(MakeNetOptions(w, false)); });
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<WireClient>());
      const bool ok = Traced(log, "WireClient::Connect", parent, 0, [&] {
        return clients.back()->Connect("127.0.0.1", server->port());
      });
      if (!ok) Fail("connect: " + clients.back()->error());
    }
  }
  /// Closes the connections, drains the server and checks both ledgers.
  void Stop(const char* phase, const Tally& tally) {
    for (auto& c : clients) c->Close();
    server->Drain();
    CheckClientLedger(phase, tally);
    CheckServerLedger(phase, *server, tally);
  }
};

/// Exact server-side counters summed over the servers of a phase.
struct ServerCounters {
  std::uint64_t applied = 0, drains = 0;
  std::vector<std::uint64_t> per_consumer;
  clic::server::AdmissionStats admission;

  void Add(const CacheServer& server) {
    applied += server.requests_applied();
    drains += server.shard_drains();
    const std::vector<std::uint64_t> pc = server.PerConsumerRequests();
    per_consumer.resize(std::max(per_consumer.size(), pc.size()), 0);
    for (std::size_t i = 0; i < pc.size(); ++i) per_consumer[i] += pc[i];
    admission += server.TotalAdmission();
  }
};

void Merge(PhaseResult* into, const PhaseResult& from) {
  into->tally.Add(from.tally);
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->lat_us, from.lat_us);
  append(&into->late_us, from.late_us);
  append(&into->seg_rps, from.seg_rps);
  append(&into->seg_p50_us, from.seg_p50_us);
}

/// `passes` passes over the wire, each on a freshly started server and
/// connections — `first`, when given, is the already started set-up
/// stack and takes the first pass. Fresh servers re-place the server's
/// threads too, and every pass starts from the same cold cache, so all
/// passes do identical work.
PhaseResult WirePhase(const WireWorkload& w, const std::vector<std::vector<Batch>>& batches,
                      int passes, double interval_ns, Tracer* tracer, const char* phase,
                      ServerCounters* counters, WireStack* first = nullptr) {
  PhaseResult all;
  for (int p = 0; p < passes; ++p) {
    WireStack stack;
    if (p == 0 && first && first->server) {
      stack = std::move(*first);
    } else {
      stack.Start(w, nullptr, 0);
    }
    const PhaseResult r = Drive(
        batches, interval_ns,
        [&](std::size_t c, const Batch& b) {
          return FromWire(stack.clients[c]->Call(b.reqs, b.n));
        },
        tracer, "WireClient::Call");
    stack.Stop(phase, r.tally);
    if (counters) counters->Add(stack.server->cache());
    Merge(&all, r);
  }
  return all;
}

/// The same passes through in-process CacheServer::Submit, each on a
/// fresh server.
PhaseResult SubmitPhase(const WireWorkload& w, const std::vector<std::vector<Batch>>& batches,
                        int passes, double interval_ns, Tracer* tracer) {
  PhaseResult all;
  for (int p = 0; p < passes; ++p) {
    CacheServer server(MakeServerOptions(w, false), kClients);
    const PhaseResult r = Drive(
        batches, interval_ns,
        [&](std::size_t c, const Batch& b) { return FromSubmit(server.Submit(c, b.reqs, b.n)); },
        tracer, "CacheServer::Submit");
    for (std::size_t c = 0; c < kClients; ++c) server.Finish(c);
    server.Shutdown();
    CheckClientLedger("in-process submit", r.tally);
    const auto adm = server.TotalAdmission();
    if (adm.submitted_requests != r.tally.submitted ||
        adm.applied_requests != r.tally.requests[kApplied]) {
      Fail("in-process submit: admission ledger disagrees with the client tally");
    }
    Merge(&all, r);
  }
  return all;
}

/// Deterministic wire pass: one consumer, one io thread, connections
/// driven one after another in client order, so the server's per-shard
/// and per-client hits must equal sequential Simulate of the shard
/// partitions bit for bit.
CacheStats VerifyPass(const WireWorkload& w, const Trace& stream,
                      const std::vector<std::vector<Batch>>& batches,
                      const std::vector<Trace>& parts) {
  NetServer server(MakeNetOptions(w, true));
  Tally tally;
  for (std::size_t c = 0; c < kClients; ++c) {
    WireClient client;
    if (!client.Connect("127.0.0.1", server.port())) Fail("connect: " + client.error());
    for (const Batch& b : batches[c]) {
      tally.submitted += b.n;
      tally.requests[FromWire(client.Call(b.reqs, b.n))] += b.n;
    }
    client.Close();
  }
  server.Drain();
  CheckClientLedger("verify pass", tally);
  CheckServerLedger("verify pass", server, tally);
  if (tally.requests[kApplied] != stream.size()) Fail("verify pass: not every request applied");

  const ServerOptions options = MakeServerOptions(w, true);
  const std::vector<CacheStats> shards = server.cache().PerShardStats();
  const std::size_t pages = clic::server::ShardCachePages(kCachePages, kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    auto policy = clic::MakePolicy(w.policy, pages, nullptr, options.clic);
    if (!SameStats(clic::Simulate(parts[s], *policy).total, shards[s])) {
      Fail("verify pass: shard " + std::to_string(s) + " hits differ from Simulate");
    }
  }
  const clic::SimResult expected = clic::server::PartitionedSimulate(stream, options);
  const CacheStats total = server.cache().TotalStats();
  if (!SameStats(total, expected.total)) Fail("verify pass: total hits differ");
  const auto per_client = server.cache().PerClientStats();
  if (per_client.size() != expected.per_client.size()) Fail("verify pass: client sets differ");
  for (const auto& [client, stats] : expected.per_client) {
    auto it = per_client.find(client);
    if (it == per_client.end() || !SameStats(it->second, stats)) {
      Fail("verify pass: client " + std::to_string(client) + " hits differ");
    }
  }
  return total;
}

/// Splits the stream into kClients contiguous chunks (client c replays
/// [c*N/C, (c+1)*N/C), ServeTrace's rule) of fixed-size batches.
std::vector<std::vector<Batch>> MakeBatches(const Trace& stream, std::size_t batch) {
  std::vector<std::vector<Batch>> out(kClients);
  const std::size_t n = stream.size();
  std::uint64_t id = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::size_t end = n * (c + 1) / kClients;
    for (std::size_t i = n * c / kClients; i < end; i += batch) {
      out[c].push_back({stream.requests.data() + i, std::min(batch, end - i), ++id});
    }
  }
  return out;
}

/// Policy cost on the shard partitions: AccessBatch over each partition
/// in Simulate's block size, single-threaded, fresh policy per shard.
struct PolicyRun {
  double ns_per_req = 0;
  std::uint64_t windows = 0, early_closes = 0;
};

PolicyRun TimeAccessBatch(const std::vector<Trace>& parts, PolicyKind kind,
                          const clic::ClicOptions& options, std::size_t pages,
                          SpanLog* log) {
  PolicyRun r;
  std::int64_t busy = 0;
  std::uint64_t n = 0;
  std::vector<std::uint8_t> hits(clic::kSimulateBatch);
  for (const Trace& part : parts) {
    auto policy = clic::MakePolicy(kind, pages, nullptr, options);
    const std::uint64_t part_span = OpenSpan(log, "partition");
    for (std::size_t i = 0; i < part.size(); i += clic::kSimulateBatch) {
      const std::size_t len = std::min(clic::kSimulateBatch, part.size() - i);
      const std::int64_t t0 = NowNs();
      policy->AccessBatch(part.requests.data() + i, i, len, hits.data());
      const std::int64_t t1 = NowNs();
      busy += t1 - t0;
      if (log) log->Add("Policy::AccessBatch", part_span, i, t0, t1);
    }
    CloseSpan(log, part_span);
    n += part.size();
    if (auto* clic_policy = dynamic_cast<clic::ClicPolicy*>(policy.get())) {
      r.windows += clic_policy->windows_completed();
      r.early_closes += clic_policy->early_closes();
    }
  }
  r.ns_per_req = n ? static_cast<double>(busy) / static_cast<double>(n) : 0.0;
  return r;
}

/// Ladder rung 1: the server's work decomposition without the server —
/// every batch split into its per-shard runs, each run applied with
/// AccessBatch by the thread that owns the shard (stripe assignment, as
/// the server's consumers own them), on fresh policies. Returns one
/// pass's wall time per request.
double PolicyRung(const WireWorkload& w, const Trace& stream,
                  const std::vector<std::vector<Batch>>& batches, Tracer* tracer) {
  // Per shard: its requests in stream order and the run length each
  // batch contributes (routing is server work, so it is done up front).
  std::vector<std::vector<Request>> shard_reqs(kShards);
  std::vector<std::vector<std::uint32_t>> runs(kShards);
  std::vector<std::vector<std::uint64_t>> run_batch(kShards);
  for (const auto& client : batches) {
    for (const Batch& b : client) {
      std::size_t counts[kShards] = {};
      for (std::size_t i = 0; i < b.n; ++i) {
        const std::size_t s = clic::server::ShardOf(b.reqs[i].page, kShards);
        shard_reqs[s].push_back(b.reqs[i]);
        ++counts[s];
      }
      for (std::size_t s = 0; s < kShards; ++s) {
        if (counts[s]) {
          runs[s].push_back(static_cast<std::uint32_t>(counts[s]));
          run_batch[s].push_back(b.id);
        }
      }
    }
  }
  const ServerOptions options = MakeServerOptions(w, false);
  const std::size_t pages = clic::server::ShardCachePages(kCachePages, kShards);
  std::vector<std::unique_ptr<clic::Policy>> policies;
  for (std::size_t s = 0; s < kShards; ++s) {
    policies.push_back(clic::MakePolicy(w.policy, pages, nullptr, options.clic));
  }
  std::vector<SpanLog*> logs(kConsumers, nullptr);
  for (unsigned k = 0; k < kConsumers && tracer; ++k) logs[k] = tracer->NewLog(true);
  std::vector<std::thread> threads;
  const std::int64_t t0 = NowNs();
  for (unsigned k = 0; k < kConsumers; ++k) {
    threads.emplace_back([&, k] {
      const std::uint64_t rung_span = OpenSpan(logs[k], "policy rung");
      std::vector<std::uint8_t> hits(w.batch);
      for (std::size_t s = k; s < kShards; s += kConsumers) {
        const Request* next = shard_reqs[s].data();
        std::uint64_t seq = 0;
        for (std::size_t r = 0; r < runs[s].size(); ++r) {
          const std::int64_t a = logs[k] ? NowNs() : 0;
          policies[s]->AccessBatch(next, seq, runs[s][r], hits.data());
          if (logs[k]) logs[k]->Add("Policy::AccessBatch", rung_span, run_batch[s][r], a, NowNs());
          next += runs[s][r];
          seq += runs[s][r];
        }
      }
      CloseSpan(logs[k], rung_span);
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - t0) / static_cast<double>(stream.size());
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

/// Frame codec cost on this workload's batches: AppendBatchFrame for
/// every batch, then FrameParser::Consume over the encoded bytes in
/// socket-read-sized chunks. Also returns the exact wire bytes per
/// request (request frames plus one status reply per batch).
struct CodecRun {
  double encode_ns_per_req = 0, parse_ns_per_req = 0, bytes_per_req = 0;
};

CodecRun TimeCodec(const std::vector<std::vector<Batch>>& batches, std::uint64_t requests,
                   SpanLog* log) {
  using namespace clic::server::net;
  CodecRun r;
  std::string wire;
  std::uint64_t frames = 0;
  const std::uint64_t encode_span = OpenSpan(log, "encode");
  const std::int64_t e0 = NowNs();
  for (const auto& client : batches) {
    for (const Batch& b : client) {
      Traced(log, "AppendBatchFrame", encode_span, b.id,
             [&] { AppendBatchFrame(b.reqs, b.n, b.id, &wire); });
      ++frames;
    }
  }
  const std::int64_t e1 = NowNs();
  CloseSpan(log, encode_span);
  FrameParser parser(kWireMaxBatch);
  ParsedFrame frame;
  constexpr std::size_t kReadChunk = 64 * 1024;
  const auto* data = reinterpret_cast<const std::uint8_t*>(wire.data());
  std::uint64_t parsed = 0;
  const std::uint64_t parse_span = OpenSpan(log, "parse");
  const std::int64_t p0 = NowNs();
  for (std::size_t off = 0; off < wire.size(); off += kReadChunk) {
    const std::uint8_t* p = data + off;
    std::size_t len = std::min(kReadChunk, wire.size() - off);
    for (;;) {
      const ParseStatus st = Traced(log, "FrameParser::Consume", parse_span, parsed + 1,
                                    [&] { return parser.Consume(&p, &len, &frame); });
      if (st == ParseStatus::kError) Fail("codec: own frames rejected: " + parser.error());
      if (st == ParseStatus::kNeedMore) break;
      ++parsed;
    }
  }
  const std::int64_t p1 = NowNs();
  CloseSpan(log, parse_span);
  if (parsed != frames) Fail("codec: parsed frame count differs from encoded");
  const double n = static_cast<double>(requests);
  r.encode_ns_per_req = static_cast<double>(e1 - e0) / n;
  r.parse_ns_per_req = static_cast<double>(p1 - p0) / n;
  r.bytes_per_req =
      static_cast<double>(wire.size() + frames * (kFrameHeaderBytes + kFrameChecksumBytes)) / n;
  return r;
}

double Ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

}  // namespace

int RunWire(const Args& args) {
  const WireWorkload* found = nullptr;
  for (const WireWorkload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (!found) {
    std::fprintf(stderr, "clic_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WireWorkload& w = *found;
  const double ol_rate = args.ol_rate > 0 ? args.ol_rate : w.ol_rate;
  Report report;
  Tracer tracer;
  SpanLog* main_log = tracer.NewLog(args.trace);

  // Untimed: make sure the on-disk trace cache holds the trace, so every
  // timed set-up below loads it warm (only the first run in a checkout
  // generates it).
  clic::sweep::TraceCache(args.cache_dir, kNoCap).Get(w.trace);

  // Set-up, kSetupReps times: trace load from the warm cache, the seeded
  // stream, server start and connect. The last repetition's server takes
  // the closed-loop phase.
  std::vector<double> setup_s, get_s, start_s;
  std::unique_ptr<Trace> stream;
  WireStack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (stack.server) stack.Stop("set-up", Tally{});
    stack = WireStack{};
    stream.reset();
    const std::uint64_t setup_span = OpenSpan(main_log, "set-up");
    const std::int64_t t0 = NowNs();
    clic::sweep::TraceCache cache(args.cache_dir, kNoCap);
    const Trace& trace = Traced(main_log, "TraceCache::Get", setup_span, 0,
                                [&]() -> const Trace& { return cache.Get(w.trace); });
    const std::int64_t t1 = NowNs();
    stream = std::make_unique<Trace>(RotatedStream(trace, args.seed, args.requests));
    const std::int64_t t2 = NowNs();
    stack.Start(w, main_log, setup_span);
    const std::int64_t t3 = NowNs();
    CloseSpan(main_log, setup_span);
    setup_s.push_back(Seconds(t3 - t0));
    get_s.push_back(Seconds(t1 - t0));
    start_s.push_back(Seconds(t3 - t2));
  }
  const auto batches = MakeBatches(*stream, w.batch);
  const std::uint64_t n = stream->size();
  const double interval_ns = 1e9 * static_cast<double>(w.batch * kClients) / ol_rate;
  const int closed_passes = PassesFor(kPhaseShare * args.seconds, w.nominal_rps, n);
  const int open_passes = PassesFor(kPhaseShare * args.seconds, ol_rate, n);

  // Timed: the open loop between the two halves of the closed loop, so
  // both sample the whole run and drift in the machine's speed is
  // averaged alike. Every pass balances both ledgers before going on. A
  // traced run interleaves each untraced closed-loop pass with the
  // ladder's other rungs and with a traced pass, so all of them see the
  // same conditions.
  Tally all;
  ServerCounters counters;
  PhaseResult closed, submit, traced_wire;
  std::vector<double> policy_rung;
  auto closed_pass = [&] {
    Merge(&closed, WirePhase(w, batches, 1, 0, nullptr, "closed loop", &counters, &stack));
    if (!args.trace) return;
    policy_rung.push_back(PolicyRung(w, *stream, batches, nullptr));
    Merge(&submit, SubmitPhase(w, batches, 1, 0, nullptr));
    Merge(&traced_wire, WirePhase(w, batches, 1, 0, &tracer, "traced closed loop", nullptr));
  };
  for (int p = 0; p < closed_passes / 2; ++p) closed_pass();
  const PhaseResult open =
      WirePhase(w, batches, open_passes, interval_ns, nullptr, "open loop", &counters);
  for (int p = closed_passes / 2; p < closed_passes; ++p) closed_pass();
  all.Add(closed.tally);
  all.Add(open.tally);
  report.Count(all.submitted, all.not_applied());

  // Untimed output check: the deterministic pass, bit-identical to
  // sequential Simulate of the shard partitions.
  const std::vector<Trace> parts = clic::server::PartitionByShard(*stream, kShards);
  const CacheStats verified = VerifyPass(w, *stream, batches, parts);

  const double late_p99 = Percentile(open.late_us, 0.99);
  if (late_p99 > kMaxLateP99Us) {
    Fail("open loop invalid: generator lateness p99 " + std::to_string(late_p99) +
         " us exceeds " + std::to_string(kMaxLateP99Us) + " us");
  }
  const double p50 = Median(closed.seg_p50_us);
  std::uint64_t ol_over_1ms = 0;
  for (double l : open.lat_us) ol_over_1ms += l > 1000.0 ? 1 : 0;

  report.EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  report.EndToEnd("throughput_rps", Median(closed.seg_rps), "req/s", closed.seg_rps.size());
  report.EndToEnd("p50_us", p50, "us", closed.lat_us.size());
  report.EndToEnd("ol_p50_us", Median(open.seg_p50_us), "us", open.lat_us.size());
  report.EndToEnd("read_hit_ratio", verified.ReadHitRatio(), "ratio", verified.reads);

  const double get_median = Median(get_s);
  const std::size_t pages = clic::server::ShardCachePages(kCachePages, kShards);
  report.Table("net.start_s", Median(start_s), "s", start_s.size());
  double consumer_max = 0, consumer_sum = 0;
  for (std::uint64_t r : counters.per_consumer) {
    consumer_max = std::max(consumer_max, static_cast<double>(r));
    consumer_sum += static_cast<double>(r);
  }
  const clic::server::AdmissionStats& admission = counters.admission;
  report.Table("server.avg_drained_batch", Ratio(counters.applied, counters.drains), "req",
               counters.drains);
  report.Table("server.consumer_imbalance",
               consumer_sum > 0
                   ? consumer_max * static_cast<double>(counters.per_consumer.size()) / consumer_sum
                   : 0,
               "ratio", counters.per_consumer.size());
  report.Table("server.shed", static_cast<double>(admission.shed_requests), "count", 1);
  report.Table("server.timed_out", static_cast<double>(admission.timed_out_requests), "count", 1);
  report.Table("server.expired", static_cast<double>(admission.expired_requests), "count", 1);
  report.Table("server.stopped", static_cast<double>(admission.stopped_requests), "count", 1);
  report.Table("net.conn_lost", static_cast<double>(all.requests[kConnLost]), "count", 1);
  report.Table("net.rejected_frames", 0, "count", 1);  // CheckServerLedger fails otherwise
  report.Table("gen.late_p99_us", late_p99, "us", open.late_us.size());
  report.Table("gen.late_max_us", Percentile(open.late_us, 1.0), "us", open.late_us.size());
  report.Table("tail.p99_us", Percentile(closed.lat_us, 0.99), "us", closed.lat_us.size());
  report.Table("tail.ol_p99_us", Percentile(open.lat_us, 0.99), "us", open.lat_us.size());
  report.Table("tail.ol_over_1ms", static_cast<double>(ol_over_1ms), "count", open.lat_us.size());
  report.Note("closed loop: " + std::to_string(closed_passes) + " passes of " +
              std::to_string(n) + " requests; open loop: " + std::to_string(open_passes) +
              " passes at " + std::to_string(static_cast<long long>(ol_rate)) + " req/s");

  if (args.trace) {
    // Policy layer on the shard partitions, single-threaded; each cost
    // is the median of kRepeats interleaved measurements.
    const clic::ClicOptions paper;
    clic::ClicOptions ss = paper;
    ss.tracker = clic::TrackerKind::kSpaceSaving;
    ss.top_k = 100;
    std::vector<double> clic_ns, ss_ns, lru_ns, sim_ns;
    PolicyRun clic_run;
    for (int r = 0; r < kRepeats; ++r) {
      SpanLog* log = r == 0 ? main_log : nullptr;
      clic_run = TimeAccessBatch(parts, PolicyKind::kClic, paper, pages, log);
      clic_ns.push_back(clic_run.ns_per_req);
      ss_ns.push_back(TimeAccessBatch(parts, PolicyKind::kClic, ss, pages, log).ns_per_req);
      lru_ns.push_back(TimeAccessBatch(parts, PolicyKind::kLru, paper, pages, log).ns_per_req);
      std::int64_t ns = 0;
      const std::uint64_t sim_span = OpenSpan(log, "simulate partitions");
      for (const Trace& part : parts) {
        auto policy = clic::MakePolicy(w.policy, pages, nullptr, paper);
        const std::int64_t t0 = NowNs();
        Traced(log, "Simulate", sim_span, 0, [&] { clic::Simulate(part, *policy); });
        ns += NowNs() - t0;
      }
      CloseSpan(log, sim_span);
      sim_ns.push_back(static_cast<double>(ns) / static_cast<double>(n));
    }
    const double own_policy_ns =
        Median(w.policy == PolicyKind::kClic ? clic_ns : lru_ns);

    // The ladder: wall time per request at each rung, from the
    // interleaved closed-loop passes above.
    const double rung_policy = Median(policy_rung);
    const double rung_submit = 1e9 / Median(submit.seg_rps);
    const double rung_wire = 1e9 / Median(closed.seg_rps);
    const PhaseResult submit_ol = SubmitPhase(w, batches, open_passes, interval_ns, nullptr);
    std::vector<double> encode_ns, parse_ns;
    CodecRun codec;
    for (int r = 0; r < kRepeats; ++r) {
      codec = TimeCodec(batches, n, r == 0 ? main_log : nullptr);
      encode_ns.push_back(codec.encode_ns_per_req);
      parse_ns.push_back(codec.parse_ns_per_req);
    }
    codec.encode_ns_per_req = Median(encode_ns);
    codec.parse_ns_per_req = Median(parse_ns);
    // Spans of one pass of each in-process rung.
    PolicyRung(w, *stream, batches, &tracer);
    SubmitPhase(w, batches, 1, 0, &tracer);
    const double overhead_pct =
        100.0 * (Median(closed.seg_rps) - Median(traced_wire.seg_rps)) / Median(closed.seg_rps);

    report.Layer("sweep.trace_get_s", get_median, "s", get_s.size());
    report.Layer("core.clic_ns_per_req", Median(clic_ns), "ns", n);
    report.Layer("core.clic_windows", static_cast<double>(clic_run.windows), "count", 1);
    report.Layer("core.clic_early_closes", static_cast<double>(clic_run.early_closes), "count", 1);
    report.Layer("core.hint_sets", static_cast<double>(clic::ComputeStats(*stream).distinct_hint_sets), "count", 1);
    report.Layer("policies.lru_ns_per_req", Median(lru_ns), "ns", n);
    report.Layer("sim.overhead_ns_per_req", Median(sim_ns) - own_policy_ns, "ns", n);
    report.Layer("stream.ss_ns_per_req", Median(ss_ns) - Median(clic_ns), "ns", n);
    report.Layer("trace.overhead_pct", overhead_pct, "%", traced_wire.seg_rps.size());
    report.Layer("failed_ratio", Ratio(all.not_applied(), all.submitted), "ratio", all.submitted);

    const double submit_p50 = Median(submit.seg_p50_us);
    report.Table("server.submit_p50_us", submit_p50, "us", submit.lat_us.size());
    report.Table("server.submit_rps", Median(submit.seg_rps), "req/s", submit.seg_rps.size());
    report.Table("server.self_ns_per_req", rung_submit - rung_policy, "ns", n);
    report.Table("server.wake_us", Median(submit_ol.seg_p50_us) - submit_p50, "us", submit_ol.lat_us.size());
    report.Table("net.encode_ns_per_req", codec.encode_ns_per_req, "ns", n);
    report.Table("net.parse_ns_per_req", codec.parse_ns_per_req, "ns", n);
    report.Table("net.self_p50_us", p50 - submit_p50, "us", closed.lat_us.size());
    report.Table("net.bytes_per_req", codec.bytes_per_req, "B", n);

    // Encode runs on both client threads at once, parse on the one io
    // thread, so their shares of wall time per request differ.
    const double encode_wall = codec.encode_ns_per_req / static_cast<double>(kClients);
    const double unattributed = rung_wire - rung_submit - encode_wall - codec.parse_ns_per_req;
    char buf[256];
    report.Note("ladder: ns of wall time per request, 2 clients, 2 consumers, 1 io thread");
    auto row = [&](const char* what, double v) {
      std::snprintf(buf, sizeof(buf), "  %-52s %10.1f", what, v);
      report.Note(buf);
    };
    row("rung policy   Policy::AccessBatch (shard runs)", rung_policy);
    row("rung server   CacheServer::Submit", rung_submit);
    row("rung wire     WireClient::Call", rung_wire);
    row("self policy", rung_policy);
    row("self server   (submit - policy)", rung_submit - rung_policy);
    row("self net      encode (AppendBatchFrame, per client)", encode_wall);
    row("self net      parse (FrameParser::Consume, io thread)", codec.parse_ns_per_req);
    row("unattributed  (syscalls, epoll, wake-ups, loopback)", unattributed);
    row("sum of self rows = wire rung",
        rung_policy + (rung_submit - rung_policy) + encode_wall + codec.parse_ns_per_req +
            unattributed);

    const std::string path = args.span_dir + "/" + w.name + "-seed" + std::to_string(args.seed) + ".csv";
    if (!tracer.Write(args.span_dir, path)) Fail("cannot write spans to " + path);
    report.Note("spans: " + std::to_string(tracer.span_count()) + " recorded, " +
                std::to_string(tracer.written_count()) + " written to " + path);
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Print(w.name, args.trace);
  return 0;
}

}  // namespace perfbench
