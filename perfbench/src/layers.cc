#include "layers.h"

#include <cstdio>

namespace perfbench {
namespace {

using sfpm::obs::MetricsSnapshot;
using sfpm::obs::TraceSpan;

double Count(const MetricsSnapshot& delta, const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Sum of the per-pass counters `mine.pass.k<k>.<field>`.
double PassSum(const MetricsSnapshot& delta, const std::string& field) {
  double sum = 0.0;
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("mine.pass.k", 0) == 0 && name.size() > field.size() &&
        name.compare(name.size() - field.size() - 1, std::string::npos,
                     "." + field) == 0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool Matches(const std::string& span, const std::string& name) {
  if (!name.empty() && name.back() == '=') return span.rfind(name, 0) == 0;
  return span == name;
}

}  // namespace

const std::vector<std::string>& QueryTypes() {
  static const std::vector<std::string> types = {
      "patterns", "rules", "predicates", "window",
      "relate",   "colocations", "status"};
  return types;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"datagen.city_ms", "ms"},
        {"datagen.predicates_ms", "ms"},
        {"store.open_ms", "ms"},
        {"store.write_ms", "ms"},
        {"store.write.bytes", "bytes"},
        {"store.crc.bytes", "bytes"},
        {"serve.load_ms", "ms"},
        {"extract.prepare_ms", "ms"},
        {"extract.infer_ms", "ms"},
        {"extract.join_ms", "ms"},
        {"extract.merge_ms", "ms"},
        {"extract.rows", "count"},
        {"extract.envelope_candidates", "count"},
        {"extract.cpu_ms", "ms"},
        {"extract.parallel_eff", "ratio"},
        {"relate.calls", "count"},
        {"relate.miss_boundary", "count"},
        {"relate.fast_hit_ratio", "ratio"},
        {"relate.inferred", "count"},
        {"extract.infer.pivot_calls", "count"},
        {"qsr.infer_ratio", "ratio"},
        {"rtree.queries", "count"},
        {"rtree.query.node_visits", "count"},
        {"rtree.query.leaf_hits", "count"},
        {"rtree.hits_per_visit", "ratio"},
        {"mine.apriori_ms", "ms"},
        {"mine.support_ms", "ms"},
        {"mine.candgen_ms", "ms"},
        {"mine.filter_ms", "ms"},
        {"mine.candidates", "count"},
        {"mine.frequent_ratio", "ratio"},
        {"mine.and_word_ops", "count"},
        {"mine.prefix_hit_ratio", "ratio"},
        {"mine.cpu_ms", "ms"},
        {"mine.parallel_eff", "ratio"},
        {"coloc.graph_ms", "ms"},
        {"coloc.mine_ms", "ms"},
        {"coloc.graph.distance_calls", "count"},
        {"coloc.edge_ratio", "ratio"},
        {"coloc.mine.rows", "count"},
        {"coloc.mine.candidates", "count"},
        {"coloc.cpu_ms", "ms"},
        {"coloc.parallel_eff", "ratio"},
    };
    for (const std::string& type : QueryTypes()) {
      u.push_back({"serve.engine_p50_us." + type, "us"});
    }
    for (const std::string& type : QueryTypes()) {
      u.push_back({"serve.engine_p99_us." + type, "us"});
    }
    for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
             {"serve_p50_ms", "ms"},
             {"serve_p99_ms", "ms"},
             {"serve_max_qps", "req/s"},
             {"serve.transport_p50_ms", "ms"},
             {"serve.errors", "count"},
             {"serve.rejected", "count"},
             {"serve.timeouts", "count"},
             {"loadgen.late_p99_ms", "ms"},
             {"trace.overhead_ratio", "ratio"},
             {"host.steal_ms", "ms"},
             {"error_ratio", "ratio"},
         }) {
      u.push_back(extra);
    }
    return u;
  }();
  return units;
}

OpWindow::OpWindow()
    : before_(sfpm::obs::MetricsRegistry::Global().Snapshot()),
      first_span_(sfpm::obs::Tracer::Global().spans().size()) {}

void OpWindow::Finish() {
  delta_ = sfpm::obs::MetricsRegistry::Global().Snapshot().DeltaSince(before_);
  const std::vector<TraceSpan> all = sfpm::obs::Tracer::Global().spans();
  spans_.assign(all.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(first_span_, all.size())),
                all.end());
  for (TraceSpan& span : spans_) {
    span.parent =
        span.parent == TraceSpan::kNoParent || span.parent < first_span_
            ? TraceSpan::kNoParent
            : span.parent - first_span_;
  }
}

double SpanMs(const std::vector<TraceSpan>& spans, const std::string& name) {
  double ms = 0.0;
  for (const TraceSpan& span : spans) {
    if (Matches(span.name, name)) ms += span.dur_ms;
  }
  return ms;
}

double SpanSelfMs(const std::vector<TraceSpan>& spans,
                  const std::string& name) {
  double ms = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!Matches(spans[i].name, name)) continue;
    ms += spans[i].dur_ms;
    for (const TraceSpan& child : spans) {
      if (child.parent == i) ms -= child.dur_ms;
    }
  }
  return ms;
}

void LayerTable::Add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void LayerTable::AddOperation(const OpWindow& window, const CallCosts& costs,
                              size_t threads) {
  const MetricsSnapshot& d = window.delta();
  const std::vector<TraceSpan>& s = window.spans();

  Add("store.open_ms", SpanMs(s, "store/open"));
  Add("store.write_ms", SpanMs(s, "store/write"));
  Add("store.write.bytes", Count(d, "store.write.bytes"));
  Add("store.crc.bytes", Count(d, "store.crc.bytes"));

  Add("extract.prepare_ms", SpanMs(s, "extract/prepare"));
  Add("extract.infer_ms", SpanMs(s, "extract/infer"));
  Add("extract.join_ms", SpanMs(s, "extract/join"));
  Add("extract.merge_ms", SpanMs(s, "extract/merge"));
  Add("extract.rows", Count(d, "extract.rows"));
  Add("extract.envelope_candidates", Count(d, "extract.envelope_candidates"));

  const double calls = Count(d, "relate.calls");
  const double inferred = Count(d, "relate.inferred");
  Add("relate.calls", calls);
  Add("relate.miss_boundary", Count(d, "relate.miss_boundary"));
  Add("relate.fast_hit_ratio",
      Ratio(Count(d, "relate.fast_contains") + Count(d, "relate.fast_disjoint"),
            calls));
  Add("relate.inferred", inferred);
  Add("extract.infer.pivot_calls", Count(d, "extract.infer.pivot_calls"));
  Add("qsr.infer_ratio", Ratio(inferred, inferred + calls));

  const double visits = Count(d, "rtree.query.node_visits");
  const double hits = Count(d, "rtree.query.leaf_hits");
  Add("rtree.queries", Count(d, "rtree.queries"));
  Add("rtree.query.node_visits", visits);
  Add("rtree.query.leaf_hits", hits);
  Add("rtree.hits_per_visit", Ratio(hits, visits));

  const double candidates = PassSum(d, "candidates");
  const double prefix_hits = Count(d, "mine.prefix_hits");
  Add("mine.apriori_ms", SpanMs(s, "mine/apriori"));
  Add("mine.support_ms", SpanMs(s, "mine/support/k="));
  Add("mine.candgen_ms", SpanMs(s, "mine/candidate_gen/k="));
  Add("mine.filter_ms", SpanMs(s, "mine/filter/k=2"));
  Add("mine.candidates", candidates);
  Add("mine.frequent_ratio", Ratio(PassSum(d, "frequent"), candidates));
  Add("mine.and_word_ops", Count(d, "mine.and_word_ops"));
  Add("mine.prefix_hit_ratio",
      Ratio(prefix_hits, prefix_hits + Count(d, "mine.prefix_misses")));

  const double distance_calls = Count(d, "coloc.graph.distance_calls");
  Add("coloc.graph_ms", SpanMs(s, "coloc/graph"));
  Add("coloc.mine_ms", SpanMs(s, "coloc/mine"));
  Add("coloc.graph.distance_calls", distance_calls);
  Add("coloc.edge_ratio", Ratio(Count(d, "coloc.graph.edges"), distance_calls));
  Add("coloc.mine.rows", Count(d, "coloc.mine.rows"));
  Add("coloc.mine.candidates", Count(d, "coloc.mine.candidates"));

  for (const char* layer : {"extract", "mine", "coloc"}) {
    const auto it = costs.find(layer);
    const CallCost cost = it == costs.end() ? CallCost{} : it->second;
    Add(std::string(layer) + ".cpu_ms", cost.cpu_ms);
    Add(std::string(layer) + ".parallel_eff",
        Ratio(cost.cpu_ms, cost.wall_ms * static_cast<double>(threads)));
  }
}

std::vector<Metric> LayerTable::Medians() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricUnits()) {
    const auto it = samples_.find(name);
    out.push_back(
        {name, it == samples_.end() ? 0.0 : Median(it->second), unit});
  }
  return out;
}

std::string FormatLayerTable(const std::vector<Metric>& metrics) {
  std::string out = "per-layer metrics (median per operation)\n";
  char line[160];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
