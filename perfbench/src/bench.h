// Shared pieces of the benchmark program: wall-clock helpers, the
// metric report and its JSON result line, in-memory spans, the
// open-loop pacer, and the seeded stream every workload replays.
#pragma once

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/trace.h"
#include "sim/simulator.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}
inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// TraceCache request cap that keeps every trace at its full length.
inline constexpr std::uint64_t kNoCap = ~std::uint64_t{0};
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;
/// Repetitions of each single-threaded layer measurement (median taken).
inline constexpr int kRepeats = 3;

/// Whole passes of `requests` that `seconds` hold at a fixed nominal
/// `rate` (never a measured one, so the work is the same at any speed);
/// at least one.
inline int PassesFor(double seconds, double rate, std::uint64_t requests) {
  const double passes = seconds * rate / static_cast<double>(requests);
  return std::max(1, static_cast<int>(passes + 0.5));
}

inline bool SameStats(const clic::CacheStats& a, const clic::CacheStats& b) {
  return a.reads == b.reads && a.writes == b.writes && a.read_hits == b.read_hits &&
         a.write_hits == b.write_hits;
}

/// Command line. --ol-rate and --requests exist only for the fixed-work
/// test (test_fixed_work.py); the command in BENCHMARK.json never
/// passes them.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir = ".bench_build/trace_cache";
  std::string span_dir = ".bench_build/spans";
  double ol_rate = 0.0;        // 0 = the workload's fixed rate
  std::uint64_t requests = 0;  // 0 = the workload's stream length
};

/// Any failed output or ledger check: explain on stderr and exit
/// non-zero before a single metric is printed.
[[noreturn]] inline void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Everything one run measured. End-to-end metrics go in the JSON line
/// of an untraced run, layer metrics in that of a traced run; table rows
/// are printed but not part of the JSON line (layer metrics this
/// workload's stack does not have).
class Report {
 public:
  void EndToEnd(std::string name, double value, std::string unit,
                std::uint64_t samples) {
    e2e_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Layer(std::string name, double value, std::string unit,
             std::uint64_t samples) {
    layer_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Table(std::string name, double value, std::string unit,
             std::uint64_t samples) {
    table_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string line) { notes_.push_back(std::move(line)); }
  /// Requests submitted in timed phases, and those not applied.
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }

  void Print(const std::string& workload, bool trace) const {
    std::printf("workload %s (%s run)\n", workload.c_str(),
                trace ? "traced" : "untraced");
    auto rows = [](const char* title, const std::vector<Metric>& ms) {
      if (ms.empty()) return;
      std::printf("  %s\n", title);
      for (const Metric& m : ms) {
        std::printf("    %-28s %16.6f %-8s n=%llu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      }
    };
    rows("end-to-end", e2e_);
    rows("per-layer", layer_);
    rows("per-layer (this stack only)", table_);
    for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    const std::vector<Metric>& out = trace ? layer_ : e2e_;
    for (std::size_t i = 0; i < out.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", out[i].value);
      json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> e2e_, layer_, table_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// One timed call into a layer. `batch` ties together the spans of one
/// request batch across rungs; `parent` is the id of the enclosing
/// phase span (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t batch = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans recorded by one thread, kept in memory until the run ends.
/// Ids are unique across logs: the log index sits in the top 16 bits.
class SpanLog {
 public:
  explicit SpanLog(std::uint16_t index) : index_(index) {}
  /// Records a finished span; returns its id.
  std::uint64_t Add(const char* name, std::uint64_t parent,
                    std::uint64_t batch, std::int64_t start_ns,
                    std::int64_t end_ns) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(index_) << 48) | (spans_.size() + 1);
    spans_.push_back({name, id, parent, batch, start_ns, end_ns});
    return id;
  }
  /// Starts a span that encloses others (their parent); its id is
  /// known before its end. Finish it with Close.
  std::uint64_t Open(const char* name, std::uint64_t parent) {
    return Add(name, parent, 0, NowNs(), 0);
  }
  void Close(std::uint64_t id) {
    spans_[(id & ((std::uint64_t{1} << 48) - 1)) - 1].end_ns = NowNs();
  }
  void Reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint16_t index_;
  std::vector<Span> spans_;
};

/// Open/Close on a log that may be null (tracing off); id 0 = no span.
inline std::uint64_t OpenSpan(SpanLog* log, const char* name, std::uint64_t parent = 0) {
  return log ? log->Open(name, parent) : 0;
}
inline void CloseSpan(SpanLog* log, std::uint64_t id) {
  if (log) log->Close(id);
}

/// All span logs of a traced run; null logs mean tracing is off.
class Tracer {
 public:
  /// A fresh log (owned here) for one thread, or nullptr when off.
  SpanLog* NewLog(bool on) {
    if (!on) return nullptr;
    logs_.push_back(
        std::make_unique<SpanLog>(static_cast<std::uint16_t>(logs_.size() + 1)));
    return logs_.back().get();
  }
  std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& l : logs_) n += l->spans().size();
    return n;
  }
  std::size_t written_count() const {
    std::size_t n = 0;
    for (const auto& l : logs_) n += std::min(l->spans().size(), kWritePerLog);
    return n;
  }
  /// Spans written per log: enough to follow every layer, while a traced
  /// run of millions of calls still writes tens of MB, not hundreds.
  static constexpr std::size_t kWritePerLog = 20'000;

  /// Writes the first kWritePerLog spans of every log as CSV to `path`
  /// in directory `dir` (created if missing); returns false when the
  /// file cannot be written.
  bool Write(const std::string& dir, const std::string& path) const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "id,parent,batch,name,start_ns,end_ns\n");
    for (const auto& l : logs_) {
      const std::size_t n = std::min(l->spans().size(), kWritePerLog);
      for (std::size_t i = 0; i < n; ++i) {
        const Span& s = l->spans()[i];
        std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.batch), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Runs `fn` and, when `log` is set, records it as one span.
template <typename Fn>
auto Traced(SpanLog* log, const char* name, std::uint64_t parent,
            std::uint64_t batch, Fn&& fn) {
  if (!log) return fn();
  const std::int64_t t0 = NowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log->Add(name, parent, batch, t0, NowNs());
  } else {
    auto r = fn();
    log->Add(name, parent, batch, t0, NowNs());
    return r;
  }
}

/// Open-loop schedule for one generator thread: slot i is due at
/// start + i * interval. The thread sleeps until shortly before the due
/// time and polls the clock for the rest, with its timer slack set to
/// 1 ns, so the kernel's default 50 us slack and sleep overshoot are not
/// charged to the server. Its own lateness — how long after the due
/// time, or after the previous call returned if that was later, the
/// send actually went out — is recorded so a run whose generator fell
/// behind can be recognised.
class Pacer {
 public:
  /// Polling covers this much of every wait; sleeps cover the rest.
  static constexpr std::int64_t kPollNs = 20'000;

  Pacer(std::int64_t start_ns, double interval_ns)
      : start_ns_(start_ns), interval_ns_(interval_ns) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }
  /// Blocks until slot i is due and returns its due time.
  std::int64_t Wait(std::uint64_t i) {
    const std::int64_t due =
        start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns_);
    const std::int64_t ready = NowNs();
    if (due - ready > kPollNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - ready - kPollNs));
    }
    std::int64_t now = NowNs();
    while (now < due) now = NowNs();
    late_us_.push_back(static_cast<double>(now - std::max(due, ready)) * 1e-3);
    return due;
  }
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  std::int64_t start_ns_;
  double interval_ns_;
  std::vector<double> late_us_;
};

/// Generator lateness above this p99 marks an open-loop run invalid: its
/// latencies would measure the load generator, not the server.
inline constexpr double kMaxLateP99Us = 200.0;

/// The seeded stream: the first `cap` requests of `trace` (all of it
/// when `cap` is 0), rotated left by a seed-derived offset, so every seed
/// replays the same requests from a different starting point (the paper
/// traces themselves are fixed). Shares the read-only hint registry.
inline clic::Trace RotatedStream(const clic::Trace& trace, std::uint64_t seed,
                                 std::uint64_t cap) {
  clic::Trace out;
  out.name = trace.name;
  out.hints = trace.hints;
  out.client_bound = trace.client_bound;
  const std::size_t n = cap ? std::min<std::size_t>(cap, trace.size()) : trace.size();
  if (n == 0) return out;
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
  x ^= x >> 31;
  const std::size_t offset = static_cast<std::size_t>(x % n);
  out.requests.reserve(n);
  out.requests.insert(out.requests.end(), trace.requests.begin() + static_cast<long>(offset),
                      trace.requests.begin() + static_cast<long>(n));
  out.requests.insert(out.requests.end(), trace.requests.begin(),
                      trace.requests.begin() + static_cast<long>(offset));
  return out;
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

int RunWire(const Args& args);
int RunReplay(const Args& args);

}  // namespace perfbench
