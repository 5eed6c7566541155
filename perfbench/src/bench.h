#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared types of the end-to-end benchmark program (perfbench/README.md).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 2007;
  double seconds = 20.0;  ///< Measured time; set-up comes on top.
  bool trace = false;     ///< Per-layer (traced) run instead of end-to-end.
  /// Tiny inputs (scale-1 city, 2k transactions, short serve steps) for
  /// the benchmark's own tests; the figures are not comparable.
  bool tiny = false;
  /// Test hook: "snapshot" flips one byte of one written snapshot,
  /// "response" flips one byte of one serve response before its check.
  std::string fault;
  /// Worker threads of every stage call (the recorded digests come from
  /// a 1-thread run; outputs are identical at every count).
  size_t threads = 4;
  std::string work_dir;  ///< Temporary inputs and outputs; removed at exit.
  std::string out_dir;   ///< Traced-run artefacts; kept.
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: its output checks and its metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Runs the named workload; false for an unknown name.
bool RunWorkload(const Options& options, Outcome* outcome);

// ---- Small shared helpers (workloads.cc) ----

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// "n=<count>" plus the highest of p90/p99/p99.9 that has at least ten
/// samples beyond it, when one exists.
std::string SampleSummary(const std::vector<double>& values);

/// User+system CPU seconds of this process so far.
double ProcessCpuSeconds();

/// Peak resident set of this process, MiB.
double PeakRssMiB();

/// Seconds on a monotonic clock.
double NowSeconds();

/// Steal time of the whole host's vCPUs so far (/proc/stat), ms; 0 where
/// unavailable.
double HostStealMs();

/// Flips one byte in the middle of `path` (the fault-injection hook).
bool FlipByte(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
