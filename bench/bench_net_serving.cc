// Wire-level serving: throughput and robustness of the epoll network
// front end (server/net/) driving the sharded cache server over real
// loopback sockets. Two claims this bench pins down (bench/README.md
// records the baselines):
//
//   1. WireServing — closed-loop wire throughput with p50/p99
//      send-to-status latency, clients x 1 and x kClients.
//   2. WireResilience — misbehaving peers cost the healthy clients
//      almost nothing: with slowloris antagonists (valid header, then
//      silence, evicted by the read deadline) and churn antagonists
//      (checksum-corrupted frames, typed-error-closed, reconnecting in
//      a loop) hammering the same server, the healthy clients sustain
//      >= 90% of their fault-free wire throughput (healthy_ratio).
//
//   Accounting is exact at the wire edge in both: every request that
//   arrived in a frame whose header parsed is served, rejected by
//   admission, or rejected by the fail-closed parser — the bench
//   aborts on any imbalance, and the JSON rows (mode="net") carry the
//   raw fields for tools/check_bench_floors.py.
//
//   CLIC_BENCH_WORKLOAD=NAME_OR_SPEC bench_net_serving
//       [--benchmark_filter=WireResilience/.*]
//
// The antagonists are real misbehaving TCP peers, not fault-plan
// clauses: the point is that the server's deadlines and fail-closed
// parsing contain actual protocol abuse, with the `net:` fault clauses
// covered separately by tests/test_net_server.cc and the CI chaos
// smoke.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"

namespace clic::bench {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kBatch = 256;
// 400 closed-loop batches per client: long enough (tens of ms on
// loopback) for the slowloris antagonists to cycle through several
// read-deadline evictions, short enough for CI.
constexpr std::uint64_t kPerClientBatches = 400;
constexpr double kReadTimeoutMs = 5.0;
// One of each abuse class. On a multi-core box their cost to the
// healthy clients is the server-side handling alone (the >= 90%
// claim); on a 1-core CI box they also steal the only CPU the server
// is saturating, which is why the floors gate prints healthy_ratio for
// the record instead of hard-failing (rows carry cores_detected).
constexpr std::size_t kSlowloris = 1;
constexpr std::size_t kChurn = 1;

/// The wire-edge ledger, checked exactly: (1) every well-formed frame's
/// requests reached Submit (net.frame_requests == adm.submitted); (2)
/// the client-side tally of status replies balances against what it
/// sent. Antagonist traffic only ever lands in rejected_*.
void CheckWireLedger(const server::AdmissionStats& a,
                     const server::net::NetStats& n,
                     const server::net::WireLoadResult& w) {
  if (a.submitted_requests == n.frame_requests &&
      a.submitted_batches == n.frames && w.ledger.Balanced()) {
    return;
  }
  std::fprintf(stderr,
               "bench_net_serving: WIRE LEDGER BROKEN: net frames=%llu "
               "frame_requests=%llu rejected=%llu/%llu | server %s | "
               "client %s\n",
               static_cast<unsigned long long>(n.frames),
               static_cast<unsigned long long>(n.frame_requests),
               static_cast<unsigned long long>(n.rejected_frames),
               static_cast<unsigned long long>(n.rejected_requests),
               a.Describe().c_str(), w.ledger.Describe().c_str());
  std::abort();
}

server::net::NetServerOptions MakeServerOptions(std::size_t conn_limit,
                                                double read_timeout_ms) {
  server::net::NetServerOptions o;
  o.listen_addr = "127.0.0.1";
  o.port = 0;  // ephemeral
  o.io_threads = 2;
  o.conn_limit = conn_limit;
  o.read_timeout_ms = read_timeout_ms;
  o.max_batch = 4096;
  o.server.shards = kShards;
  o.server.cache_pages = 12'000;
  o.server.policy = PolicyKind::kLru;
  o.server.max_consumers = static_cast<unsigned>(kShards);
  return o;
}

/// Blocking loopback connect for the antagonist threads. Returns -1 on
/// failure (caller backs off and retries).
int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Reads until the server closes the connection (it always does after
/// an error reply or an eviction); the bytes themselves are discarded.
void DrainUntilClose(int fd) {
  char buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

/// Slowloris antagonist: sends a syntactically valid frame prefix
/// (full header announcing a kBatch-request batch, plus a few payload
/// bytes) and then goes silent, holding a connection slot until the
/// read deadline evicts it. Loops until stopped.
void SlowlorisLoop(std::uint16_t port, const std::string& frame,
                   std::atomic<bool>* stop, std::atomic<std::uint64_t>* cycles) {
  const std::size_t prefix = server::net::kFrameHeaderBytes + 4;
  while (!stop->load(std::memory_order_acquire)) {
    const int fd = RawConnect(port);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (::write(fd, frame.data(), prefix) ==
        static_cast<ssize_t>(prefix)) {
      DrainUntilClose(fd);  // blocks until the eviction closes us
      cycles->fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
  }
}

/// Churn antagonist: sends a complete, well-formed frame with one
/// payload byte flipped — the header parses (so the server knows how
/// many requests it is rejecting) but the FNV-1a checksum fails, the
/// parser poisons, and the connection gets a typed error and a close.
/// Reconnects every millisecond: connection-table churn plus a steady
/// stream of wire-rejected requests for the ledger. The pause keeps
/// the measurement about protocol abuse, not about a busy-loop peer
/// monopolising a shared CPU core on a small CI box — the server's
/// cost per churn cycle (accept, parse, typed reject, close) is what
/// the healthy_ratio is supposed to price.
void ChurnLoop(std::uint16_t port, const std::string& frame,
               std::atomic<bool>* stop, std::atomic<std::uint64_t>* cycles) {
  std::string corrupt = frame;
  corrupt[server::net::kFrameHeaderBytes + 1] ^= 0xFF;
  while (!stop->load(std::memory_order_acquire)) {
    const int fd = RawConnect(port);
    if (fd >= 0) {
      if (::write(fd, corrupt.data(), corrupt.size()) ==
          static_cast<ssize_t>(corrupt.size())) {
        DrainUntilClose(fd);
        cycles->fetch_add(1, std::memory_order_relaxed);
      }
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Emits one mode="net" JSON row. `submitted` covers every request that
/// arrived in a frame whose header parsed — well-formed or rejected —
/// so the floors gate's submitted == served + ... + wire_rejected
/// balance is exact by construction and any lost write breaks it.
void AppendNetRow(const std::string& name,
                  const server::AdmissionStats& a,
                  const server::net::NetStats& n,
                  const server::net::WireLoadResult& w,
                  double healthy_ratio) {
  BenchJsonRow row;
  row.bench = name;
  row.requests_per_sec = w.throughput_rps;
  row.batch = kBatch;
  row.requests = a.applied_requests;
  row.mode = "net";
  std::string extra = "\"submitted\":";
  extra.append(std::to_string(a.submitted_requests + n.rejected_requests));
  extra.append(",\"served\":");
  extra.append(std::to_string(a.applied_requests));
  extra.append(",\"shed\":");
  extra.append(std::to_string(a.shed_requests));
  extra.append(",\"timed_out\":");
  extra.append(std::to_string(a.timed_out_requests));
  extra.append(",\"expired\":");
  extra.append(std::to_string(a.expired_requests));
  extra.append(",\"stopped\":");
  extra.append(std::to_string(a.stopped_requests));
  extra.append(",\"wire_rejected\":");
  extra.append(std::to_string(n.rejected_requests));
  extra.append(",\"rejected_frames\":");
  extra.append(std::to_string(n.rejected_frames));
  extra.append(",\"evicted_read\":");
  extra.append(std::to_string(n.evicted_read));
  extra.append(",\"accepted\":");
  extra.append(std::to_string(n.accepted));
  extra.append(",\"conn_lost\":");
  extra.append(std::to_string(w.ledger.conn_lost_requests));
  extra.append(",\"cores_detected\":");
  extra.append(
      std::to_string(std::max(1u, std::thread::hardware_concurrency())));
  extra.append(",\"wire_p50_us\":");
  sweep::AppendDouble(&extra, w.p50_us);
  extra.append(",\"wire_p99_us\":");
  sweep::AppendDouble(&extra, w.p99_us);
  if (healthy_ratio >= 0.0) {
    extra.append(",\"healthy_ratio\":");
    sweep::AppendDouble(&extra, healthy_ratio);
  }
  row.extra = std::move(extra);
  AppendBenchJson(row);
}

/// One serve of the workload over loopback: start a NetServer on an
/// ephemeral port, drive it closed-loop with RunWireLoad, drain, check
/// the ledger. Returns the client-side result plus the quiescent
/// server-side stats through the out-params.
server::net::WireLoadResult ServeOnce(const Trace& trace,
                                      std::size_t clients,
                                      const server::net::NetServerOptions& so,
                                      server::AdmissionStats* adm,
                                      server::net::NetStats* net) {
  server::net::NetServer srv(so);
  server::net::WireLoadOptions lo;
  lo.port = srv.port();
  lo.clients = clients;
  lo.batch_size = kBatch;
  lo.request_budget = kPerClientBatches * kBatch * clients;
  server::net::WireLoadResult w = server::net::RunWireLoad(trace, lo);
  srv.Drain();
  *adm = srv.cache().TotalAdmission();
  *net = srv.Stats();
  CheckWireLedger(*adm, *net, w);
  return w;
}

void WireServing(benchmark::State& state, const std::string& workload,
                 const std::string& name, std::size_t clients) {
  const Trace& trace = GetTrace(workload);
  server::AdmissionStats adm;
  server::net::NetStats net;
  server::net::WireLoadResult w;
  for (auto _ : state) {
    w = ServeOnce(trace, clients, MakeServerOptions(clients, 0.0), &adm,
                  &net);
  }
  state.counters["requests_per_sec"] = w.throughput_rps;
  state.counters["wire_p50_us"] = w.p50_us;
  state.counters["wire_p99_us"] = w.p99_us;
  state.counters["served"] = static_cast<double>(adm.applied_requests);
  AppendNetRow(name, adm, net, w, -1.0);
}

void WireResilience(benchmark::State& state, const std::string& workload,
                    const std::string& name) {
  const Trace& trace = GetTrace(workload);

  // Antagonist frame material: one well-formed kBatch-request frame
  // built from the head of the workload (content is irrelevant — the
  // slowloris peer never finishes it, the churn peer corrupts it).
  std::string frame;
  server::net::AppendBatchFrame(trace.requests.data(),
                                std::min<std::size_t>(kBatch,
                                                      trace.requests.size()),
                                1, &frame);

  // Each rep runs both sides and keeps its best throughput: a single
  // scheduler preemption on a small CI box swamps a tens-of-ms run,
  // and the sustainable-rate ratio is what the >= 90% claim is about.
  constexpr int kReps = 2;
  server::AdmissionStats adm;
  server::net::NetStats net;
  server::net::WireLoadResult base, faulted;
  double best_base = 0.0, best_faulted = 0.0;
  std::uint64_t slow_cycles = 0, churn_cycles = 0;
  for (auto _ : state) {
    for (int rep = 0; rep < kReps; ++rep) {
      // Fault-free baseline: same server config (read deadline armed,
      // connection-table headroom present) minus the antagonists, so
      // the ratio isolates exactly the cost of the abuse.
      const auto so = MakeServerOptions(kClients + kSlowloris + kChurn + 4,
                                        kReadTimeoutMs);
      {
        server::AdmissionStats a;
        server::net::NetStats n;
        base = ServeOnce(trace, kClients, so, &a, &n);
        best_base = std::max(best_base, base.throughput_rps);
      }

      // Antagonist pass: the same closed-loop healthy load with
      // slowloris + churn peers hammering the same port throughout.
      server::net::NetServer srv(so);
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> slow{0}, churn{0};
      std::vector<std::thread> antagonists;
      for (std::size_t i = 0; i < kSlowloris; ++i) {
        antagonists.emplace_back(SlowlorisLoop, srv.port(), frame, &stop,
                                 &slow);
      }
      for (std::size_t i = 0; i < kChurn; ++i) {
        antagonists.emplace_back(ChurnLoop, srv.port(), frame, &stop,
                                 &churn);
      }
      server::net::WireLoadOptions lo;
      lo.port = srv.port();
      lo.clients = kClients;
      lo.batch_size = kBatch;
      lo.request_budget = kPerClientBatches * kBatch * kClients;
      faulted = server::net::RunWireLoad(trace, lo);
      stop.store(true, std::memory_order_release);
      for (std::thread& t : antagonists) t.join();
      srv.Drain();
      adm = srv.cache().TotalAdmission();
      net = srv.Stats();
      CheckWireLedger(adm, net, faulted);
      best_faulted = std::max(best_faulted, faulted.throughput_rps);
      slow_cycles += slow.load(std::memory_order_relaxed);
      churn_cycles += churn.load(std::memory_order_relaxed);
    }
  }

  const double ratio = best_base > 0 ? best_faulted / best_base : 0.0;
  // The row and counters report the best faulted rate — the same
  // sustainable-rate estimate the ratio's numerator uses.
  faulted.throughput_rps = best_faulted;
  state.counters["healthy_ratio"] = ratio;
  state.counters["requests_per_sec"] = best_faulted;
  state.counters["baseline_rps"] = best_base;
  state.counters["wire_p99_us"] = faulted.p99_us;
  state.counters["slowloris_evictions"] =
      static_cast<double>(net.evicted_read);
  state.counters["churn_rejects"] = static_cast<double>(churn_cycles);

  if (net.evicted_read == 0 || net.rejected_requests == 0) {
    // The antagonists must actually have bitten — a resilience number
    // measured against peers that never misbehaved is vacuous.
    std::fprintf(stderr,
                 "bench_net_serving: antagonists did not engage "
                 "(evicted_read=%llu wire_rejected=%llu slowloris=%llu "
                 "churn=%llu)\n",
                 static_cast<unsigned long long>(net.evicted_read),
                 static_cast<unsigned long long>(net.rejected_requests),
                 static_cast<unsigned long long>(slow_cycles),
                 static_cast<unsigned long long>(churn_cycles));
    std::abort();
  }
  AppendNetRow(name, adm, net, faulted, ratio);
}

void RegisterNetServing(const std::string& workload) {
  for (std::size_t clients : {std::size_t{1}, kClients}) {
    const std::string name = std::string("WireServing/") + workload +
                             "/clients:" + std::to_string(clients) +
                             "/batch:" + std::to_string(kBatch);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [workload, name, clients](benchmark::State& s) {
          WireServing(s, workload, name, clients);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  const std::string name =
      std::string("WireResilience/") + workload + "/slow-readers";
  benchmark::RegisterBenchmark(name.c_str(),
                               [workload, name](benchmark::State& s) {
                                 WireResilience(s, workload, name);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

[[maybe_unused]] const bool kRegistered =
    (RegisterNetServing(BenchWorkloadFromEnv("bench_net_serving")), true);

}  // namespace
}  // namespace clic::bench
