#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer numbers of the traced run. Two sources: the benchmark's own
// timing of each public call it makes (wall and process CPU, under a
// `bench/<call>` span), and the program's existing obs::Tracer spans and
// obs::MetricsRegistry counters, read as deltas around each operation.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Every per-layer metric, with its unit, in BENCHMARK.json order. A
/// traced run reports all of them; a layer the workload does not reach
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// The query types whose engine latency is reported per type.
const std::vector<std::string>& QueryTypes();

/// Wall and CPU time the benchmark measured around its calls into one
/// layer.
struct CallCost {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};
using CallCosts = std::map<std::string, CallCost>;

/// Runs `fn` under a `bench/<call>` span and adds its wall and process
/// CPU time to `(*costs)[layer]`.
template <typename Fn>
auto TimedCall(CallCosts* costs, const std::string& layer,
               const std::string& call, Fn&& fn) {
  sfpm::obs::Tracer::Span span =
      sfpm::obs::Tracer::Global().StartSpan("bench/" + call);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto result = fn();
  CallCost& cost = (*costs)[layer];
  cost.wall_ms += (NowSeconds() - t0) * 1e3;
  cost.cpu_ms += (ProcessCpuSeconds() - cpu0) * 1e3;
  return result;
}

/// Registry counters and tracer spans of one operation: construct before
/// it, call Finish after it.
class OpWindow {
 public:
  OpWindow();
  void Finish();

  const sfpm::obs::MetricsSnapshot& delta() const { return delta_; }
  const std::vector<sfpm::obs::TraceSpan>& spans() const { return spans_; }

 private:
  sfpm::obs::MetricsSnapshot before_;
  size_t first_span_ = 0;
  sfpm::obs::MetricsSnapshot delta_;
  std::vector<sfpm::obs::TraceSpan> spans_;
};

/// Per-layer samples of a traced run; each metric's reported value is the
/// median of its samples (one per traced operation, set-up or step).
class LayerTable {
 public:
  void Add(const std::string& name, double value);
  /// Adds every counter- and span-derived metric of one operation, plus
  /// the cpu/parallel-efficiency pair of each layer in `costs`.
  void AddOperation(const OpWindow& window, const CallCosts& costs,
                    size_t threads);
  /// Medians of every metric in LayerMetricUnits() (0 when unsampled).
  std::vector<Metric> Medians() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Milliseconds covered by spans named `name`, or starting with `name`
/// when it ends in '='  (e.g. "mine/support/k=").
double SpanMs(const std::vector<sfpm::obs::TraceSpan>& spans,
              const std::string& name);

/// Self time of spans named `name`: duration minus direct children.
double SpanSelfMs(const std::vector<sfpm::obs::TraceSpan>& spans,
                  const std::string& name);

/// Renders the per-layer table: metric, value, unit.
std::string FormatLayerTable(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
