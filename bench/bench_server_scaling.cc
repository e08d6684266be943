// Server scaling: throughput of the online sharded cache server as the
// shard count and client count grow. The per-shard locking plus batched
// ingestion should scale request throughput with shards until the
// machine runs out of cores; this driver pins the numbers down
// (bench/README.md records the baselines).
//
//   CLIC_BENCH_WORKLOAD=NAME_OR_SPEC bench_server_scaling
//       [--benchmark_filter=ServerScaling/.*/LRU/.*]
//
// CLIC_BENCH_WORKLOAD (default DB2_C60) drives the server with any
// workload token (see BenchWorkloadFromEnv in bench_util.h).
//
// Counter `requests_per_sec` is the headline, the wall-clock rate the
// JSON row carries too; `p99_us` tracks tail batch latency so a
// throughput win can't silently buy unbounded queueing delay.
#include <algorithm>
#include <string>

#include "bench_util.h"
#include "server/cache_server.h"

namespace clic::bench {
namespace {

void ServerScaling(benchmark::State& state, PolicyKind kind,
                   const std::string& workload, const std::string& name) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::size_t clients = static_cast<std::size_t>(state.range(1));
  const Trace& trace = GetTrace(workload);

  server::ServerOptions options;
  options.shards = shards;
  options.cache_pages = 12'000;
  options.policy = kind;
  options.clic = PaperClicOptions();

  server::LoadOptions load;
  load.clients = clients;
  load.batch_size = 256;

  server::ServeResult result;
  for (auto _ : state) {
    result = server::ServeTrace(trace, options, load);
  }
  state.counters["requests_per_sec"] = result.throughput_rps;
  state.counters["p50_us"] = result.p50_us;
  state.counters["p99_us"] = result.p99_us;
  state.counters["read_hit_ratio"] = result.total.ReadHitRatio();
  // Consumer-side batching efficiency: how much of the submitted batch
  // size survives hash-sharding (requests per owning-core drain).
  state.counters["avg_drained_batch"] = result.avg_drained_batch;
  // Ownership topology: how many owning-consumer threads actually ran,
  // what the machine offered, and the per-core rate. A 1-core container
  // reports cores_detected=1 so tools/check_bench_floors.py knows not
  // to demand shard scaling from it.
  const double per_core_rps =
      result.throughput_rps / static_cast<double>(std::max(1u, result.consumers));
  state.counters["consumers"] = static_cast<double>(result.consumers);
  state.counters["per_core_rps"] = per_core_rps;

  BenchJsonRow row;
  row.bench = name;
  row.requests_per_sec = result.throughput_rps;
  row.batch = static_cast<std::uint64_t>(result.avg_drained_batch);
  row.requests = result.requests;
  row.mode = "server";
  row.extra = "\"consumers\":" + std::to_string(result.consumers) +
              ",\"cores_detected\":" + std::to_string(result.cores_detected) +
              ",\"per_core_rps\":" + std::to_string(per_core_rps);
  AppendBenchJson(row);
}

void RegisterServerScaling(const std::string& workload) {
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kClic}) {
    for (long shards : {1L, 2L, 4L, 8L}) {
      for (long clients : {1L, 4L}) {
        const std::string name = std::string("ServerScaling/") + workload +
                                 "/" + PolicyName(kind) + "/shards:" +
                                 std::to_string(shards) + "/clients:" +
                                 std::to_string(clients);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kind, workload, name](benchmark::State& s) {
              ServerScaling(s, kind, workload, name);
            })
            ->Args({shards, clients})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

[[maybe_unused]] const bool kRegistered =
    (RegisterServerScaling(BenchWorkloadFromEnv("bench_server_scaling")),
     true);

}  // namespace
}  // namespace clic::bench
