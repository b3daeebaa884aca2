// perfbench: one workload per process, so peak RSS is per workload.
//
//   perfbench --workload paper_compile|stream_assign|served_mix
//             [--seed N] [--seconds S] [--trace 0|1] [--commit SHA]
//             [--mono-seed N] [--modular-seed N] [--served-seed N]
//             [--work-dir DIR]
//
// Prints a host record and a human-readable report ("perfbench: ..."
// lines), then, as the last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 when a result was printed, 1 on bad arguments or
// an error that stopped the run.
#include <malloc.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.h"

namespace perfbench {

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("perfbench: ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_compile|stream_assign|served_mix [--seed N] "
               "[--seconds S] [--trace 0|1] [--commit SHA] [--mono-seed N] "
               "[--modular-seed N] [--served-seed N] [--work-dir DIR]\n",
               why);
  std::exit(1);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') usage("bad number");
  return v;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc slides its mmap threshold up as large blocks are freed, so whether
  // a later large block comes from the heap (and stays resident after it is
  // freed) depends on the order of earlier frees, and peak RSS jumped
  // between two values from run to run (16.5 or 21 MB on paper_compile, 40
  // or 52 MB on served_mix). A fixed threshold at the sliding one's upper
  // limit (32 MiB) takes every large block from the heap, as a long-running
  // process does once its threshold has slid past them.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  RunConfig cfg;
  std::string workload;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = parse_u64(v);
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<double>(parse_u64(v));
    } else if (a == "--trace") {
      cfg.trace = parse_u64(v) != 0;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--mono-seed") {
      cfg.mono_seed = parse_u64(v);
    } else if (a == "--modular-seed") {
      cfg.modular_seed = parse_u64(v);
    } else if (a == "--served-seed") {
      cfg.served_seed = parse_u64(v);
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (cfg.seconds < 1) usage("--seconds must be at least 1");

  Outcome (*run)(const RunConfig&) = nullptr;
  if (workload == "paper_compile") run = run_paper_compile;
  if (workload == "stream_assign") run = run_stream_assign;
  if (workload == "served_mix") run = run_served_mix;
  if (run == nullptr) usage("unknown --workload");

  // Calibrate before the workload, so a slow host shows apart from a slow
  // change.
  const double calibration = calibration_ms();
  std::printf("host: %s\n", host_record(commit, calibration).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    out = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s stopped: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (cfg.trace) out.set("bench.calibration_ms", calibration);
  if (out.attempted == 0) out.wrong("no operation was attempted");

  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!valid_name(m.name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("perfbench: %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("perfbench: fail_rate %.6f (%llu of %llu operations)\n",
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted == 0 ? 1 : out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
