// The replay workload: in-process trace replay through
// sweep::SweepRunner, the path that reproduces the paper's figures, with
// no server or network code. CLIC points where closing a window costs
// more (3 noise hint types, exact and Space-Saving trackers) or happens
// early (the adaptive window on an abruptly shifting working set), and
// LRU as the floor.
#include "bench.h"
#include "sim/policy_factory.h"
#include "sim/trace_ops.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"

namespace perfbench {
namespace {

using clic::PolicyKind;
using clic::Trace;
using clic::sweep::SweepRow;
using clic::sweep::SweepRunner;
using clic::sweep::SweepSpec;

constexpr std::size_t kCachePages = 12'000;
constexpr unsigned kThreads = 2;
// Shares of --seconds the closed and the open loop are sized for. The
// open loop gets more: its samples come one grid pass per period.
constexpr double kClosedShare = 0.35;
constexpr double kOpenShare = 0.55;
// Simulated requests per second a grid pass is sized by (closed loop)
// and offered at (open loop: about half of the measured saturation).
// Fixed, so the work done never depends on speed.
constexpr double kNominalRps = 8e6;
constexpr double kOpenLoopRps = 5e6;
// Figure 10's noise: 3 extra hint types, domain 10, Zipf z = 1.
constexpr int kNoiseTypes = 3;
constexpr int kNoiseDomain = 10;
constexpr double kNoiseZipf = 1.0;

const char* const kBase = "DB2_C60";
const char* const kNoisy = "DB2_C60+T3";
const char* const kPhase = "phase-abrupt";

/// The grid: one spec per CLIC configuration (SweepSpec carries one set
/// of CLIC options), all at 12,000 pages.
std::vector<SweepSpec> GridSpecs() {
  std::vector<SweepSpec> specs(4);
  specs[0].traces = {kBase};
  specs[0].policies = {PolicyKind::kLru, PolicyKind::kClic};
  specs[1].traces = {kNoisy};
  specs[1].policies = {PolicyKind::kClic};
  specs[2] = specs[1];
  specs[2].clic.tracker = clic::TrackerKind::kSpaceSaving;
  specs[2].clic.top_k = 100;
  specs[3].traces = {kPhase};
  specs[3].policies = {PolicyKind::kClic};
  specs[3].clic.adaptive_window = true;
  for (SweepSpec& s : specs) s.cache_sizes = {kCachePages};
  return specs;
}

struct Grid {
  std::vector<SweepRow> rows;
  double wall_s = 0;
};

Grid RunGrid(const SweepRunner& runner, const std::vector<SweepSpec>& specs,
             SpanLog* log, std::uint64_t pass) {
  Grid g;
  const std::uint64_t grid_span = OpenSpan(log, "grid pass");
  const std::int64_t t0 = NowNs();
  for (const SweepSpec& spec : specs) {
    std::vector<SweepRow> rows =
        Traced(log, "SweepRunner::Run", grid_span, pass, [&] { return runner.Run(spec); });
    g.rows.insert(g.rows.end(), rows.begin(), rows.end());
  }
  g.wall_s = Seconds(NowNs() - t0);
  CloseSpan(log, grid_span);
  return g;
}

std::uint64_t GridRequests(const Grid& g) {
  std::uint64_t n = 0;
  for (const SweepRow& r : g.rows) n += r.result.total.reads + r.result.total.writes;
  return n;
}

/// Hit counts of every point, overall and per client, must equal the
/// reference pass's.
void CheckSameHits(const Grid& ref, const Grid& g, const char* what) {
  if (ref.rows.size() != g.rows.size()) Fail(std::string(what) + ": row count differs");
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    const clic::SimResult& a = ref.rows[i].result;
    const clic::SimResult& b = g.rows[i].result;
    bool same = a.per_client.size() == b.per_client.size() && SameStats(a.total, b.total);
    for (auto ia = a.per_client.begin(), ib = b.per_client.begin();
         same && ia != a.per_client.end(); ++ia, ++ib) {
      same = ia->first == ib->first && SameStats(ia->second, ib->second);
    }
    if (!same) {
      Fail(std::string(what) + ": hits of point " + std::to_string(i) + " (" +
           ref.rows[i].point.trace + "/" + clic::PolicyName(ref.rows[i].point.policy) +
           ") differ");
    }
  }
}

/// One point replayed outside the sweep: AccessBatch over the whole
/// trace in Simulate's block size, then Simulate itself, each on a fresh
/// policy; the times are medians of kRepeats alternating measurements.
struct PointCost {
  double access_ns = 0, simulate_ns = 0;
  std::uint64_t requests = 0, windows = 0, early_closes = 0;
};

PointCost TimePoint(const Trace& trace, PolicyKind kind, const clic::ClicOptions& options,
                    SpanLog* log) {
  PointCost c;
  c.requests = trace.size();
  std::vector<double> access, simulate;
  std::vector<std::uint8_t> hits(clic::kSimulateBatch);
  for (int r = 0; r < kRepeats; ++r) {
    SpanLog* span_log = r == 0 ? log : nullptr;
    const std::uint64_t point_span = OpenSpan(span_log, "point");
    auto policy = clic::MakePolicy(kind, kCachePages, &trace, options);
    std::int64_t busy = 0;
    for (std::size_t i = 0; i < trace.size(); i += clic::kSimulateBatch) {
      const std::size_t len = std::min(clic::kSimulateBatch, trace.size() - i);
      const std::int64_t t0 = NowNs();
      policy->AccessBatch(trace.requests.data() + i, i, len, hits.data());
      const std::int64_t t1 = NowNs();
      busy += t1 - t0;
      if (span_log) span_log->Add("Policy::AccessBatch", point_span, i, t0, t1);
    }
    access.push_back(static_cast<double>(busy));
    if (auto* p = dynamic_cast<clic::ClicPolicy*>(policy.get())) {
      c.windows = p->windows_completed();
      c.early_closes = p->early_closes();
    }
    auto fresh = clic::MakePolicy(kind, kCachePages, &trace, options);
    const std::int64_t t0 = NowNs();
    Traced(span_log, "Simulate", point_span, 0, [&] { clic::Simulate(trace, *fresh); });
    simulate.push_back(static_cast<double>(NowNs() - t0));
    CloseSpan(span_log, point_span);
  }
  c.access_ns = Median(access);
  c.simulate_ns = Median(simulate);
  return c;
}

}  // namespace

int RunReplay(const Args& args) {
  Report report;
  Tracer tracer;
  SpanLog* log = tracer.NewLog(args.trace);
  const std::uint64_t cap = args.requests;  // 0 = whole traces

  // Untimed: warm the on-disk trace cache (generated only on the first
  // run in a checkout).
  {
    clic::sweep::TraceCache warm(args.cache_dir, kNoCap);
    warm.Get(kBase);
    warm.Get(kPhase);
  }

  // Set-up, kSetupReps times: both traces from the warm cache, the
  // seeded streams, and the noise injection.
  std::vector<double> setup_s, get_s, noise_s;
  Trace base, noisy, phase;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    base = Trace{};
    noisy = Trace{};
    phase = Trace{};
    const std::uint64_t setup_span = OpenSpan(log, "set-up");
    const std::int64_t t0 = NowNs();
    {
      clic::sweep::TraceCache cache(args.cache_dir, kNoCap);
      const Trace& b = Traced(log, "TraceCache::Get", setup_span, 0,
                              [&]() -> const Trace& { return cache.Get(kBase); });
      const Trace& p = Traced(log, "TraceCache::Get", setup_span, 0,
                              [&]() -> const Trace& { return cache.Get(kPhase); });
      get_s.push_back(Seconds(NowNs() - t0));
      base = RotatedStream(b, args.seed, cap);
      phase = RotatedStream(p, args.seed, cap);
    }
    const std::int64_t t1 = NowNs();
    noisy = Traced(log, "InjectNoiseHints", setup_span, 0, [&] {
      return clic::InjectNoiseHints(base, kNoiseTypes, kNoiseDomain, kNoiseZipf, args.seed);
    });
    const std::int64_t t2 = NowNs();
    noise_s.push_back(Seconds(t2 - t1));
    setup_s.push_back(Seconds(t2 - t0));
    CloseSpan(log, setup_span);
  }
  base.name = kBase;
  noisy.name = kNoisy;
  phase.name = kPhase;
  const SweepRunner::TraceProvider provider = [&](const std::string& name) -> const Trace& {
    if (name == kBase) return base;
    if (name == kNoisy) return noisy;
    return phase;
  };
  const std::vector<SweepSpec> specs = GridSpecs();
  const SweepRunner one(provider, 1);
  const SweepRunner pool(provider, kThreads);

  // Untimed reference pass on one thread; every timed pass on the pool
  // must reproduce its hit counts exactly.
  const Grid reference = RunGrid(one, specs, nullptr, 0);
  const std::uint64_t grid_requests = GridRequests(reference);
  const int closed_passes = PassesFor(kClosedShare * args.seconds, kNominalRps, grid_requests);
  const int open_passes = PassesFor(kOpenShare * args.seconds, kOpenLoopRps, grid_requests);

  // The open loop runs between the two halves of the closed loop, so
  // both sample the whole run and drift in the machine's speed is
  // averaged alike. A traced run follows every untraced closed-loop pass
  // with a traced one (a span around every SweepRunner::Run), so both
  // see the same conditions.
  std::vector<double> pass_rps, pass_us, efficiency, traced_rps;
  auto closed_pass = [&](std::uint64_t p) {
    const Grid g = RunGrid(pool, specs, nullptr, 0);
    CheckSameHits(reference, g, "closed-loop pass");
    pass_rps.push_back(static_cast<double>(grid_requests) / g.wall_s);
    pass_us.push_back(g.wall_s * 1e6);
    double busy = 0;
    for (const SweepRow& r : g.rows) busy += r.wall_seconds;
    efficiency.push_back(busy / (kThreads * g.wall_s));
    if (!args.trace) return;
    const Grid t = RunGrid(pool, specs, log, p + 1);
    CheckSameHits(reference, t, "traced pass");
    traced_rps.push_back(static_cast<double>(grid_requests) / t.wall_s);
  };
  for (int p = 0; p < closed_passes / 2; ++p) closed_pass(static_cast<std::uint64_t>(p));
  // Open loop: grid passes released on a fixed schedule, each timed
  // from its release time, so a pass that overruns delays the next.
  std::vector<double> ol_us, late_us;
  {
    const double period_ns = 1e9 * static_cast<double>(grid_requests) / kOpenLoopRps;
    Pacer pacer(NowNs() + 1'000'000, period_ns);
    for (int p = 0; p < open_passes; ++p) {
      const std::int64_t due = pacer.Wait(static_cast<std::uint64_t>(p));
      const Grid g = RunGrid(pool, specs, nullptr, 0);
      ol_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
      CheckSameHits(reference, g, "open-loop pass");
    }
    late_us = pacer.late_us();
  }
  for (int p = closed_passes / 2; p < closed_passes; ++p) {
    closed_pass(static_cast<std::uint64_t>(p));
  }
  report.Count(grid_requests * static_cast<std::uint64_t>(closed_passes + open_passes), 0);

  std::uint64_t reads = 0, read_hits = 0;
  for (const SweepRow& r : reference.rows) {
    if (r.point.policy != PolicyKind::kClic) continue;
    reads += r.result.total.reads;
    read_hits += r.result.total.read_hits;
  }
  report.EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  // Each pass is one sample, and co-tenant memory traffic slows single
  // passes by up to 2x, so the run reports the quick quartile of its
  // passes: the third quartile of pass rates and the first quartile of
  // pass latencies. Interference only ever slows a pass, so this end of
  // the distribution follows the code; the median follows the
  // neighbours (over 8 runs in one quiet stretch the spread was 12-14%
  // for the median of passes and 5% for the quick quartile).
  report.EndToEnd("throughput_rps", Percentile(pass_rps, 0.75), "req/s", pass_rps.size());
  report.EndToEnd("p50_us", Percentile(pass_us, 0.25), "us", pass_us.size());
  report.EndToEnd("ol_p50_us", Percentile(ol_us, 0.25), "us", ol_us.size());
  report.EndToEnd("read_hit_ratio",
                  reads ? static_cast<double>(read_hits) / static_cast<double>(reads) : 0.0,
                  "ratio", reads);
  report.Table("workload.noise_inject_s", Median(noise_s), "s", noise_s.size());
  report.Table("sweep.pool_efficiency", Median(efficiency), "ratio", efficiency.size());
  report.Table("gen.late_max_us", Percentile(late_us, 1.0), "us", late_us.size());
  for (const SweepRow& r : reference.rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "point %-12s %-5s read_hit_ratio %.6f (%llu reads)",
                  r.point.trace.c_str(), clic::PolicyName(r.point.policy),
                  r.result.total.ReadHitRatio(),
                  static_cast<unsigned long long>(r.result.total.reads));
    report.Note(buf);
  }
  report.Note("closed loop: " + std::to_string(closed_passes) + " grid passes of " +
              std::to_string(grid_requests) + " simulated requests; open loop: " +
              std::to_string(open_passes) + " passes released at " +
              std::to_string(static_cast<long long>(kOpenLoopRps)) + " req/s");

  if (args.trace) {
    // Policy and simulator cost per point, single-threaded, with the
    // same options the grid uses.
    PointCost total, lru, clic_base, exact, ss;
    for (const SweepSpec& spec : specs) {
      for (const std::string& name : spec.traces) {
        for (PolicyKind kind : spec.policies) {
          const PointCost c = TimePoint(provider(name), kind, spec.clic, log);
          total.access_ns += c.access_ns;
          total.simulate_ns += c.simulate_ns;
          total.requests += c.requests;
          total.windows += c.windows;
          total.early_closes += c.early_closes;
          if (name == kBase) (kind == PolicyKind::kLru ? lru : clic_base) = c;
          if (name == kNoisy) (spec.clic.tracker == clic::TrackerKind::kExact ? exact : ss) = c;
        }
      }
    }
    auto per_req = [](double ns, std::uint64_t n) {
      return n ? ns / static_cast<double>(n) : 0.0;
    };
    report.Layer("sweep.trace_get_s", Median(get_s), "s", get_s.size());
    report.Layer("core.clic_ns_per_req", per_req(clic_base.access_ns, clic_base.requests), "ns",
                 clic_base.requests);
    report.Layer("core.clic_windows", static_cast<double>(total.windows), "count", 1);
    report.Layer("core.clic_early_closes", static_cast<double>(total.early_closes), "count", 1);
    report.Layer("core.hint_sets", static_cast<double>(clic::ComputeStats(noisy).distinct_hint_sets),
                 "count", 1);
    report.Layer("policies.lru_ns_per_req", per_req(lru.access_ns, lru.requests), "ns",
                 lru.requests);
    report.Layer("sim.overhead_ns_per_req",
                 per_req(total.simulate_ns - total.access_ns, total.requests), "ns",
                 total.requests);
    report.Layer("stream.ss_ns_per_req", per_req(ss.access_ns - exact.access_ns, ss.requests),
                 "ns", ss.requests);
    report.Layer("trace.overhead_pct",
                 100.0 * (Percentile(pass_rps, 0.75) - Percentile(traced_rps, 0.75)) /
                     Percentile(pass_rps, 0.75),
                 "%", traced_rps.size());
    report.Layer("failed_ratio", 0.0, "ratio", report.attempted());

    const std::string path =
        args.span_dir + "/replay-clic-hints-seed" + std::to_string(args.seed) + ".csv";
    if (!tracer.Write(args.span_dir, path)) Fail("cannot write spans to " + path);
    report.Note("spans: " + std::to_string(tracer.span_count()) + " recorded, " +
                std::to_string(tracer.written_count()) + " written to " + path);
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Print("replay-clic-hints", args.trace);
  return 0;
}

}  // namespace perfbench
