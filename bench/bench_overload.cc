// Overload resilience: throughput and degradation of the online cache
// server under an injected single-shard stall, across an admission
// policy x queue-cap x burst grid. The proof this bench exists to pin
// down (bench/README.md records the baselines):
//
//   1. With bounded admission, a stalled shard degrades only the
//      traffic routed at it: clients of the healthy shards sustain
//      >= 90% of their fault-free closed-loop throughput.
//   2. Accounting is exact under chaos: submitted == applied + shed +
//      timed_out + expired + stopped, request- and batch-granular.
//      The bench aborts on any imbalance, so a CI run doubles as the
//      accounting gate.
//
//   CLIC_BENCH_WORKLOAD=NAME_OR_SPEC bench_overload
//       [--benchmark_filter=Overload/.*/shed/.*]
//
// Traffic model: the workload is hash-partitioned by shard and each
// client's batches target exactly one shard (what a routing front end
// produces), so shard 0's stall pressure lands on client 0 alone.
// Client 0 drives open-loop (SubmitAsync) into the stall; the healthy
// clients drive closed-loop so their per-driver wall time measures
// real end-to-end drain speed. Each grid point first runs fault-free
// for the baseline, then with the stall plan.
//
// Counters: nonstalled_ratio (min healthy-client faulted/baseline
// throughput ratio — the headline), shed_rate / timeout_rate /
// expired_rate over client 0's offered load, and drain p50/p99 under
// faults. JSON rows carry mode="overload" plus the raw accounting
// fields for tools/check_bench_floors.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/cache_server.h"
#include "server/fault_injection.h"

namespace clic::bench {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kBatch = 256;
// 40 batches per client per pass: big enough that the healthy clients'
// wall times are measurable, small enough that the worst grid point
// (block admission riding out every stall) stays in CI budget.
constexpr std::uint64_t kPerClientRequests = 40 * kBatch;
constexpr double kStallMs = 20.0;
constexpr double kWatchdogMs = 10.0;

struct DriverOutcome {
  std::uint64_t submitted_batches = 0;
  double wall_seconds = 0.0;  // closed-loop drivers: submit-to-applied
};

struct RunOutcome {
  server::AdmissionStats adm;
  std::vector<DriverOutcome> drivers;
  std::uint64_t watchdog_sheds = 0;
  unsigned consumers = 0;  // owning-consumer threads the server ran
  double wall_seconds = 0.0;
  double drain_p50_us = 0.0;
  double drain_p99_us = 0.0;
};

/// Every batch must be accounted for exactly once; see the
/// AdmissionStats invariants in server/cache_server.h.
void CheckAccounting(const server::AdmissionStats& a,
                     std::uint64_t driver_submitted_batches) {
  if (a.submitted_batches == driver_submitted_batches && a.Balanced()) return;
  std::fprintf(stderr,
               "bench_overload: ACCOUNTING BROKEN (drivers submitted %llu "
               "batches): %s\n",
               static_cast<unsigned long long>(driver_submitted_batches),
               a.Describe().c_str());
  std::abort();
}

/// One full serve of the partitioned workload. Client c's batches all
/// hash to shard c. Client 0 is open-loop; clients 1.. are closed-loop
/// with per-driver wall measured submit-to-applied.
RunOutcome RunOnce(const std::vector<Trace>& parts,
                   server::AdmissionPolicy admission, std::size_t queue_cap,
                   std::uint64_t burst, const server::fault::FaultPlan* plan) {
  server::ServerOptions options;
  options.shards = kShards;
  options.cache_pages = 12'000;
  options.policy = PolicyKind::kLru;
  // One owning consumer per shard even on a small CI box: a stalled
  // owner sleeps, so the healthy owners keep their shards fed.
  options.max_consumers = static_cast<unsigned>(kShards);
  options.queue_cap = queue_cap;
  options.admission = admission;
  options.submit_timeout_ms = 5.0;
  options.batch_deadline_ms = 50.0;
  options.watchdog_ms = kWatchdogMs;
  options.record_drain_latency = true;
  options.fault = plan;

  server::CacheServer server(options, kShards);
  RunOutcome out;
  out.drivers.resize(kShards);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < kShards; ++c) {
    drivers.emplace_back([&, c] {
      const std::vector<Request>& reqs = parts[c].requests;
      const std::uint64_t n =
          std::min<std::uint64_t>(reqs.size(), kPerClientRequests);
      DriverOutcome& d = out.drivers[c];
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t pass = 0; pass < burst; ++pass) {
        for (std::uint64_t pos = 0; pos < n; pos += kBatch) {
          const std::size_t count =
              static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, n - pos));
          ++d.submitted_batches;
          if (c == 0) {
            server.SubmitAsync(c, reqs.data() + pos, count);
          } else {
            server.Submit(c, reqs.data() + pos, count);
          }
        }
      }
      server.Finish(c);
      // For closed-loop drivers the loop only exits once the last batch
      // was applied, so this really is end-to-end drain time.
      d.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    });
  }
  for (std::thread& t : drivers) t.join();
  server.Shutdown();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  out.adm = server.TotalAdmission();
  out.watchdog_sheds = server.watchdog_sheds();
  out.consumers = server.consumers();
  const std::vector<double> drain_us = server.DrainLatenciesUs();
  out.drain_p50_us = server::Percentile(drain_us, 0.50);
  out.drain_p99_us = server::Percentile(drain_us, 0.99);

  std::uint64_t driver_batches = 0;
  for (const DriverOutcome& d : out.drivers) {
    driver_batches += d.submitted_batches;
  }
  CheckAccounting(out.adm, driver_batches);
  return out;
}

void Overload(benchmark::State& state, const std::string& workload,
              const std::string& name, server::AdmissionPolicy admission,
              std::size_t queue_cap, std::uint64_t burst) {
  const Trace& trace = GetTrace(workload);
  const std::vector<Trace> parts = server::PartitionByShard(trace, kShards);
  for (const Trace& p : parts) {
    if (p.requests.size() < kBatch) {
      std::fprintf(stderr,
                   "bench_overload: workload '%s' leaves shard partition "
                   "'%s' with %zu < %zu requests\n",
                   workload.c_str(), p.name.c_str(), p.requests.size(),
                   kBatch);
      std::abort();
    }
  }

  // A long run of 20ms stalls on shard 0: slow enough to trip the 10ms
  // watchdog, long enough to outlast the run.
  server::fault::FaultPlan plan;
  plan.burst = burst;
  server::fault::ShardStall stall;
  stall.shard = 0;
  stall.after_drain = 0;
  stall.drains = 1'000'000;
  stall.ms = kStallMs;
  plan.stalls.push_back(stall);

  // A healthy client drains its whole stream in a few hundred
  // microseconds, where a single scheduler preemption swamps the
  // measurement; each side gets kReps runs and each driver keeps its
  // best wall — the sustainable-throughput estimate the >= 90%
  // criterion is about.
  constexpr int kReps = 3;
  std::vector<double> base_wall(kShards, 1e30), fault_wall(kShards, 1e30);
  RunOutcome base, faulted;
  for (auto _ : state) {
    for (int rep = 0; rep < kReps; ++rep) {
      base = RunOnce(parts, admission, queue_cap, burst, nullptr);
      faulted = RunOnce(parts, admission, queue_cap, burst, &plan);
      for (std::size_t c = 0; c < kShards; ++c) {
        base_wall[c] = std::min(base_wall[c], base.drivers[c].wall_seconds);
        fault_wall[c] =
            std::min(fault_wall[c], faulted.drivers[c].wall_seconds);
      }
    }
  }

  // Headline: the worst healthy client's throughput retention (both
  // sides replay the identical stream, so the wall ratio IS the
  // throughput ratio).
  double ratio = 1.0;
  for (std::size_t c = 1; c < kShards; ++c) {
    if (fault_wall[c] > 0) {
      ratio = std::min(ratio, base_wall[c] / fault_wall[c]);
    }
  }

  const server::AdmissionStats& a = faulted.adm;
  const double offered = static_cast<double>(a.submitted_requests);
  state.counters["nonstalled_ratio"] = ratio;
  state.counters["shed_rate"] =
      offered > 0 ? static_cast<double>(a.shed_requests) / offered : 0.0;
  state.counters["timeout_rate"] =
      offered > 0 ? static_cast<double>(a.timed_out_requests) / offered : 0.0;
  state.counters["expired_rate"] =
      offered > 0 ? static_cast<double>(a.expired_requests) / offered : 0.0;
  state.counters["drain_p50_us"] = faulted.drain_p50_us;
  state.counters["drain_p99_us"] = faulted.drain_p99_us;
  state.counters["watchdog_sheds"] =
      static_cast<double>(faulted.watchdog_sheds);
  const double applied_rps =
      faulted.wall_seconds > 0
          ? static_cast<double>(a.applied_requests) / faulted.wall_seconds
          : 0.0;
  state.counters["requests_per_sec"] = applied_rps;

  BenchJsonRow row;
  row.bench = name;
  row.requests_per_sec = applied_rps;
  row.batch = kBatch;
  row.requests = a.applied_requests;
  row.mode = "overload";
  std::string extra = "\"submitted\":";
  extra.append(std::to_string(a.submitted_requests));
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
  extra.append(",\"watchdog_sheds\":");
  extra.append(std::to_string(faulted.watchdog_sheds));
  extra.append(",\"consumers\":");
  extra.append(std::to_string(faulted.consumers));
  extra.append(",\"cores_detected\":");
  extra.append(std::to_string(
      std::max(1u, std::thread::hardware_concurrency())));
  extra.append(",\"per_core_rps\":");
  sweep::AppendDouble(
      &extra, applied_rps / static_cast<double>(std::max(1u, faulted.consumers)));
  extra.append(",\"nonstalled_ratio\":");
  sweep::AppendDouble(&extra, ratio);
  row.extra = std::move(extra);
  AppendBenchJson(row);
}

void RegisterOverload(const std::string& workload) {
  struct Policy {
    server::AdmissionPolicy admission;
    const char* name;
  };
  const Policy policies[] = {
      {server::AdmissionPolicy::kShed, "shed"},
      {server::AdmissionPolicy::kBlockWithDeadline, "deadline"},
      {server::AdmissionPolicy::kBlock, "block"},
  };
  for (const Policy& p : policies) {
    for (std::size_t queue_cap : {4ul, 16ul}) {
      for (std::uint64_t burst : {1ull, 2ull}) {
        const std::string name =
            std::string("Overload/") + workload + "/" + p.name +
            "/cap:" + std::to_string(queue_cap) +
            "/burst:" + std::to_string(burst);
        const auto admission = p.admission;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [workload, name, admission, queue_cap,
             burst](benchmark::State& s) {
              Overload(s, workload, name, admission, queue_cap, burst);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

[[maybe_unused]] const bool kRegistered =
    (RegisterOverload(BenchWorkloadFromEnv("bench_overload")), true);

}  // namespace
}  // namespace clic::bench
