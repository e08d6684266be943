// The repo benchmark's program: one process runs one named workload
// through the public APIs of the repository's layers, checks its
// outputs, and prints its metrics (see ../README.md).
//
//   clic_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--cache-dir DIR] [--span-dir DIR]
//
// The last line of stdout is the JSON result. Any failed output or
// ledger check exits 1 without printing it.
#include <sys/resource.h>

#include <cstring>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "clic_perfbench: %s\nusage: clic_perfbench --workload "
               "tpcc-clic-wire|tpch-lru-wire-b8|replay-clic-hints --seed N "
               "--seconds S --trace 0|1 [--cache-dir DIR] [--span-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0)) {
    Usage("bad value '" + std::string(text) + "' for " + flag);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      args.trace = ParseNumber(flag, value) != 0;
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else if (flag == "--ol-rate") {
      args.ol_rate = ParseNumber(flag, value);
    } else if (flag == "--requests") {
      args.requests = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be > 0");
  try {
    if (args.workload == "replay-clic-hints") return perfbench::RunReplay(args);
    return perfbench::RunWire(args);
  } catch (const std::exception& e) {
    perfbench::Fail(std::string("exception: ") + e.what());
  }
}
