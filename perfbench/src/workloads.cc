// The three workloads of the end-to-end benchmark (perfbench/README.md).
//
// Every workload has the same shape: set up its inputs from the seed
// several times (setup_s is the median), then repeat its operation until
// the measuring budget is spent (run_s is the median) and check every
// output. A traced run also serves what the operation produced through an
// in-process `sfpm serve` at the open-loop reference rate (serve_p50_ms,
// serve_p99_ms); city-pipeline's serve leg also answers the pattern-set
// scans and climbs the whole rate ladder (serve_max_qps).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "datagen/city.h"
#include "datagen/synthetic_predicates.h"
#include "expected.h"
#include "layers.h"
#include "obs/report.h"
#include "serve_leg.h"
#include "store/pipeline.h"
#include "store/reader.h"
#include "store/writer.h"

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string SampleSummary(const std::vector<double>& values) {
  std::string out = "n=" + std::to_string(values.size());
  const double n = static_cast<double>(values.size());
  for (const auto& [label, q] : {std::pair<const char*, double>{"p99.9", 0.999},
                                 {"p99", 0.99},
                                 {"p90", 0.9}}) {
    if (n * (1.0 - q) >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.6g", label, Quantile(values, q));
      return out + buf;
    }
  }
  return out + " (no percentile has 10 samples beyond it)";
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool FlipByte(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return false;
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size <= 0) return false;
  const std::streamoff at = size / 2;
  char byte = 0;
  file.seekg(at);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(at);
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

double HostStealMs() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (int i = 0; i < 8 && (stat >> field); ++i) steal = field;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? steal * 1e3 / static_cast<double>(ticks) : 0.0;
}

namespace {

using sfpm::Status;
namespace store = sfpm::store;

constexpr int kMaxSetups = 25;
/// Engine passes whose requests feed the per-type engine latencies.
constexpr size_t kTypedPasses = 10;

/// Input sizes: the benchmark's, or the tiny ones of its own tests.
struct Sizes {
  int city_scale = 8;        ///< city-pipeline.
  int small_city_scale = 4;  ///< city-coloc.
  size_t transactions = 100000;
  /// Set-ups per run: at least `setups`, more while they add up to less
  /// than `setup_seconds`, at most kMaxSetups.
  int setups = 3;
  double setup_seconds = 3.0;
  size_t pool = 2048;        ///< Distinct requests per serve leg.
  LadderOptions ladder;
};

Sizes SizesFor(const Options& options) {
  Sizes sizes;
  if (options.tiny) {
    sizes.city_scale = 1;
    sizes.small_city_scale = 1;
    sizes.transactions = 2000;
    sizes.setups = 2;
    sizes.setup_seconds = 0.0;
    sizes.pool = 256;
    sizes.ladder.reference_seconds = 0.3;
    sizes.ladder.step_seconds = 0.1;
    sizes.ladder.warmup_seconds = 0.1;
  }
  sizes.ladder.seed = options.seed;
  sizes.ladder.corrupt_one_response = options.fault == "response";
  return sizes;
}

/// The content digest of a snapshot: FNV-1a over the section table
/// (type, name, length, CRC32) of every section but the manifest, which
/// records provenance (tool version, input hashes) rather than content.
/// Opening verifies every checksum first.
sfpm::Result<uint64_t> ContentDigest(const std::string& path) {
  SFPM_ASSIGN_OR_RETURN(const store::SnapshotReader reader,
                        store::SnapshotReader::Open(path));
  uint64_t hash = store::kFnv1aSeed;
  for (const store::SectionInfo& info : reader.sections()) {
    if (info.type == store::SectionType::kManifest) continue;
    const std::string entry =
        std::to_string(static_cast<uint32_t>(info.type)) + ";" + info.name +
        ";" + std::to_string(info.length) + ";" + std::to_string(info.crc32) +
        "\n";
    hash = store::Fnv1a64(entry, hash);
  }
  return hash;
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return true;
}

sfpm::datagen::CityConfig CityAt(int scale, uint64_t seed) {
  sfpm::datagen::CityConfig config;
  config.seed = seed;
  return sfpm::datagen::ScaledCityConfig(config, scale);
}

sfpm::datagen::SyntheticPredicateConfig PredicatesFor(size_t transactions,
                                                      uint64_t seed) {
  sfpm::datagen::SyntheticPredicateConfig config;
  config.num_transactions = transactions;
  config.seed = seed;
  // 21 spatial predicates over 10 feature types; the two 3-relation and
  // seven 2-relation types give 13 same-type pairs for KC+ to prune.
  config.groups = {
      {"slum", {"contains", "touches", "overlaps"}},
      {"river", {"crosses", "touches", "contains"}},
      {"school", {"contains", "touches"}},
      {"policeCenter", {"contains", "touches"}},
      {"street", {"crosses", "contains"}},
      {"illuminationPoint", {"contains", "touches"}},
      {"hospital", {"contains", "touches"}},
      {"park", {"overlaps", "touches"}},
      {"lake", {"touches", "contains"}},
      {"railway", {"crosses"}},
  };
  config.attributes = {
      {"murderRate", {"low", "medium", "high", "veryHigh"}},
      {"theftRate", {"low", "medium", "high"}},
  };
  return config;
}

store::MineConfig ItemsetMine(double min_support, size_t threads) {
  store::MineConfig config;
  config.min_support = min_support;
  config.backend = "apriori";
  config.filter = "kc+";
  config.threads = threads;
  return config;
}

store::MineConfig ColocMine(size_t threads) {
  store::MineConfig config;
  config.backend = "coloc";
  config.coloc_distance = 500.0;
  config.min_support = 0.1;
  config.filter = "kc+";
  config.threads = threads;
  return config;
}

store::ExtractConfig Extract(size_t threads) {
  store::ExtractConfig config;
  config.threads = threads;
  return config;
}

/// Writes the city snapshot; the benchmark times the stage call.
Status SetUpCity(const std::string& dir, int scale, uint64_t seed,
                 CallCosts* costs) {
  return TimedCall(costs, "datagen", "store.RunGenerateCityStage", [&] {
    return store::RunGenerateCityStage(CityAt(scale, seed), dir + "/city.sfpm");
  });
}

/// One batch workload: how to set up its inputs and run its operation.
struct BatchSpec {
  /// Writes the inputs into the directory.
  std::function<Status(const std::string&, CallCosts*)> setup;
  /// Reads inputs from the first directory, writes outputs into the
  /// second.
  std::function<Status(const std::string&, const std::string&, CallCosts*)>
      op;
  std::vector<std::string> outputs;       ///< Files the operation writes.
  std::vector<std::string> served_inputs; ///< Inputs the serve leg adds.
  /// Whether the serve leg sends `patterns` and `rules`, which scan the
  /// whole pattern set, and climbs the whole rate ladder.
  bool full_mix = false;
};

BatchSpec SpecFor(const std::string& workload, const Options& options,
                  const Sizes& sizes) {
  BatchSpec spec;
  const uint64_t seed = options.seed;
  const size_t threads = options.threads;
  if (workload == "city-pipeline") {
    const int scale = sizes.city_scale;
    spec.setup = [=](const std::string& dir, CallCosts* costs) {
      return SetUpCity(dir, scale, seed, costs);
    };
    spec.op = [=](const std::string& in, const std::string& out,
                 CallCosts* costs) {
      SFPM_RETURN_NOT_OK(TimedCall(costs, "extract", "store.RunExtractStage",
                                   [&] {
                                     return store::RunExtractStage(
                                         in + "/city.sfpm", out + "/txdb.sfpm",
                                         Extract(threads));
                                   }));
      return TimedCall(costs, "mine", "store.RunMineStage", [&] {
        return store::RunMineStage(out + "/txdb.sfpm", out + "/patterns.sfpm",
                                   ItemsetMine(0.1, threads));
      });
    };
    spec.outputs = {"txdb.sfpm", "patterns.sfpm"};
    spec.served_inputs = {"city.sfpm"};
    spec.full_mix = true;
  } else if (workload == "mine-itemsets") {
    const size_t transactions = sizes.transactions;
    spec.setup = [=](const std::string& dir, CallCosts* costs) {
      const sfpm::feature::PredicateTable table = TimedCall(
          costs, "datagen.predicates", "datagen.GenerateSyntheticPredicates",
          [&] {
            return sfpm::datagen::GenerateSyntheticPredicates(
                PredicatesFor(transactions, seed));
          });
      return TimedCall(costs, "store", "store.SnapshotWriter.WriteTo", [&] {
        store::SnapshotWriter writer;
        writer.AddTable(table);
        return writer.WriteTo(dir + "/txdb.sfpm");
      });
    };
    spec.op = [=](const std::string& in, const std::string& out,
                 CallCosts* costs) {
      return TimedCall(costs, "mine", "store.RunMineStage", [&] {
        return store::RunMineStage(in + "/txdb.sfpm", out + "/patterns.sfpm",
                                   ItemsetMine(0.02, threads));
      });
    };
    spec.outputs = {"patterns.sfpm"};
    spec.served_inputs = {"txdb.sfpm"};
  } else {  // city-coloc
    const int scale = sizes.small_city_scale;
    spec.setup = [=](const std::string& dir, CallCosts* costs) {
      return SetUpCity(dir, scale, seed, costs);
    };
    spec.op = [=](const std::string& in, const std::string& out,
                 CallCosts* costs) {
      return TimedCall(costs, "coloc", "store.RunMineStage", [&] {
        return store::RunMineStage(in + "/city.sfpm", out + "/colocations.sfpm",
                                   ColocMine(threads));
      });
    };
    spec.outputs = {"colocations.sfpm"};
    spec.served_inputs = {"city.sfpm"};
  }
  return spec;
}

/// State shared by the phases of one workload run.
class WorkloadRun {
 public:
  WorkloadRun(const Options& options, Outcome* outcome)
      : options_(options), sizes_(SizesFor(options)), outcome_(outcome) {}

  void RunBatch(const BatchSpec& spec);

 private:
  /// Records a failed check; the run ends with correct=false.
  void Fail(const std::string& what) {
    ++outcome_->failed;
    outcome_->notes.push_back("CHECK FAILED: " + what);
  }
  void Note(const std::string& line) { outcome_->notes.push_back(line); }

  std::string Dir(const std::string& name) const {
    const std::string dir = options_.work_dir + "/" + name;
    std::filesystem::create_directories(dir);
    return dir;
  }

  /// Whether to set up once more, given the set-up times so far.
  bool WantSetup(const std::vector<double>& setup_s) const {
    double total = 0.0;
    for (double s : setup_s) total += s;
    const int done = static_cast<int>(setup_s.size());
    return done < sizes_.setups ||
           (total < sizes_.setup_seconds && done < kMaxSetups);
  }

  /// Records setup-time layer numbers of a traced set-up.
  void AddSetupLayers(const OpWindow& window, const CallCosts& costs);

  /// Checks and measures the request mix against a started server at
  /// the rates of `ladder_options`. `full_mix` adds the pattern-set scans
  /// (`patterns`, `rules`).
  void ServeLeg(RunningServer* server, bool full_mix,
                const LadderOptions& ladder_options);

  /// Adds the end-to-end metrics shared by every workload.
  void AddEndToEnd(const std::vector<double>& setup_s,
                   const std::vector<double>& run_s, double snapshot_bytes);

  /// Finishes a traced run: trace file, layer table, overhead ratio.
  void FinishTrace(double untraced_run_s, double traced_run_s);

  const Options& options_;
  const Sizes sizes_;
  Outcome* outcome_;
  LayerTable layers_;
  const double steal_at_start_ms_ = HostStealMs();
};

void WorkloadRun::AddSetupLayers(const OpWindow& window,
                                 const CallCosts& costs) {
  if (costs.count("datagen") != 0) {
    // The generate-city stage minus its snapshot write.
    layers_.Add("datagen.city_ms",
                SpanSelfMs(window.spans(), "stage/generate-city"));
  }
  if (costs.count("datagen.predicates") != 0) {
    layers_.Add("datagen.predicates_ms",
                costs.at("datagen.predicates").wall_ms);
  }
}

void WorkloadRun::RunBatch(const BatchSpec& spec) {
  sfpm::obs::Tracer& tracer = sfpm::obs::Tracer::Global();

  // Set-up, several times; the last one's inputs are used.
  std::vector<double> setup_s;
  std::string inputs;
  for (int k = 0; WantSetup(setup_s); ++k) {
    if (!inputs.empty()) std::filesystem::remove_all(inputs);
    inputs = Dir("setup" + std::to_string(k));
    CallCosts costs;
    tracer.set_enabled(options_.trace);
    OpWindow window;
    const double t0 = NowSeconds();
    const Status st = spec.setup(inputs, &costs);
    setup_s.push_back(NowSeconds() - t0);
    window.Finish();
    tracer.set_enabled(false);
    if (!st.ok()) {
      Fail("set-up: " + st.ToString());
      return;
    }
    if (options_.trace) AddSetupLayers(window, costs);
  }

  // Repetitions until the budget is spent; in a traced run the serve leg
  // takes its share of it, and the repetitions spend their first half
  // untraced, for the overhead ratio.
  LadderOptions serve_options = sizes_.ladder;
  if (!spec.full_mix) serve_options.rates = {serve_options.reference_rate};
  const double serve_budget =
      options_.trace ? LadderSeconds(serve_options) : 0.0;
  const double batch_budget = std::max(0.5, options_.seconds - serve_budget);
  const std::string out = Dir("out");
  std::vector<double> run_s, traced_s;
  std::vector<std::string> reference_bytes(spec.outputs.size());
  double snapshot_bytes = 0.0;
  const double reps_start = NowSeconds();
  for (size_t rep = 0;; ++rep) {
    const double elapsed = NowSeconds() - reps_start;
    const bool traced_half = options_.trace && elapsed >= batch_budget / 2;
    if (rep >= 3 && elapsed >= batch_budget &&
        (!options_.trace || !traced_s.empty())) {
      break;
    }
    CallCosts costs;
    tracer.set_enabled(traced_half);
    OpWindow window;
    const double t0 = NowSeconds();
    const Status st = spec.op(inputs, out, &costs);
    const double took = NowSeconds() - t0;
    window.Finish();
    tracer.set_enabled(false);
    ++outcome_->attempted;
    if (!st.ok()) {
      Fail("operation: " + st.ToString());
      continue;
    }
    (traced_half ? traced_s : run_s).push_back(took);
    if (traced_half) layers_.AddOperation(window, costs, options_.threads);

    if (options_.fault == "snapshot" && rep == 1) {
      FlipByte(out + "/" + spec.outputs.front());
    }
    // Checks: every repetition's snapshots are byte-identical to the
    // first one's, which must open cleanly (every checksum verified).
    bool same = true;
    double bytes = 0.0;
    for (size_t i = 0; i < spec.outputs.size(); ++i) {
      const std::string path = out + "/" + spec.outputs[i];
      std::string content;
      if (!ReadFile(path, &content)) {
        Fail("cannot read " + spec.outputs[i]);
        same = false;
        continue;
      }
      bytes += static_cast<double>(content.size());
      if (rep == 0) {
        const auto digest = ContentDigest(path);
        if (!digest.ok()) {
          Fail(spec.outputs[i] + " does not open: " +
               digest.status().ToString());
        } else {
          const std::string want =
              ExpectedDigest(options_.workload, options_.tiny, options_.seed,
                             spec.outputs[i]);
          const std::string got = store::HashHex(digest.value());
          Note("digest " + spec.outputs[i] + " " + got);
          if (!want.empty() && want != got) {
            Fail(spec.outputs[i] + " digest " + got + " != recorded " + want);
          }
        }
        reference_bytes[i] = std::move(content);
      } else if (content != reference_bytes[i]) {
        same = false;
      }
    }
    if (rep == 0) snapshot_bytes = bytes;
    if (!same) {
      Fail("repetition " + std::to_string(rep) +
           " snapshots differ from the first repetition's");
    }
  }
  Note("run_s " + SampleSummary(run_s));
  AddEndToEnd(setup_s, run_s, snapshot_bytes);
  if (!options_.trace) return;

  // Serve what the operation wrote (plus the inputs that give it layers
  // or transactions to answer from).
  std::vector<std::string> paths;
  for (const std::string& name : spec.served_inputs) {
    paths.push_back(inputs + "/" + name);
  }
  for (const std::string& name : spec.outputs) {
    paths.push_back(out + "/" + name);
  }
  if (options_.fault == "snapshot") {
    // The flipped snapshot would (rightly) refuse to load; serve a clean
    // copy of the operation's output instead.
    CallCosts unused;
    const Status st = spec.op(inputs, out, &unused);
    if (!st.ok()) Fail("operation: " + st.ToString());
  }
  double load_ms = 0.0;
  std::string error;
  std::unique_ptr<RunningServer> server = StartServer(paths, &load_ms, &error);
  if (server == nullptr) {
    Fail(error);
    return;
  }
  layers_.Add("serve.load_ms", load_ms);
  ServeLeg(server.get(), spec.full_mix, serve_options);
  server.reset();
  FinishTrace(Median(run_s), Median(traced_s));
}

void WorkloadRun::ServeLeg(RunningServer* server, bool full_mix,
                           const LadderOptions& ladder_options) {
  const std::vector<PooledRequest> pool = BuildRequestPool(
      *server->holder.Current(), options_.seed, sizes_.pool, full_mix);
  const sfpm::serve::QueryEngine engine(&server->holder);

  // Reference answers, before any timed load. The pass repeats for the
  // per-type engine latencies; every pass must agree.
  const EnginePass reference = RunEnginePass(engine, pool);
  std::map<std::string, std::vector<double>> engine_us = reference.micros;
  uint64_t refused = reference.failed, differ = 0;
  outcome_->attempted += pool.size();
  for (size_t pass = 1; pass < kTypedPasses; ++pass) {
    const EnginePass again = RunEnginePass(engine, pool);
    outcome_->attempted += pool.size();
    refused += again.failed;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (again.results[i] != reference.results[i]) ++differ;
    }
    for (const auto& [type, micros] : again.micros) {
      auto& all = engine_us[type];
      all.insert(all.end(), micros.begin(), micros.end());
    }
  }
  if (refused + differ != 0) {
    outcome_->failed += refused + differ;
    Note("CHECK FAILED: the engine refused " + std::to_string(refused) +
         " pooled requests and changed " + std::to_string(differ) +
         " answers between passes");
  }
  std::string engine_line = "engine p50 per query type (us):";
  for (const auto& [type, us] : engine_us) {
    char part[64];
    std::snprintf(part, sizeof(part), " %s=%.1f", type.c_str(),
                  Quantile(us, 0.5));
    engine_line += part;
  }
  Note(engine_line);

  const sfpm::obs::MetricsSnapshot before =
      sfpm::obs::MetricsRegistry::Global().Snapshot();
  const LadderResult ladder =
      RunLadder(*server, pool, reference.results, ladder_options);
  const sfpm::obs::MetricsSnapshot delta =
      sfpm::obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  outcome_->attempted += ladder.attempted;
  outcome_->failed += ladder.failed;
  if (ladder.failed != 0) {
    Note("CHECK FAILED: " + std::to_string(ladder.failed) +
         " serve requests failed or answered wrongly");
  }
  for (const StepResult& step : ladder.steps) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "serve step rate=%.0f achieved=%.1f p50=%.4fms p99=%.4fms "
                  "late_p99=%.4fms backlog_end=%llu failed=%llu %s",
                  step.rate, step.achieved, step.p50_ms, step.p99_ms,
                  Quantile(step.late_ms, 0.99),
                  static_cast<unsigned long long>(step.backlog_end),
                  static_cast<unsigned long long>(step.failed),
                  step.passed ? "pass" : "FAIL");
    Note(line);
  }
  double p50_ms = 0.0;
  if (ladder.reference() != nullptr) {
    p50_ms = ladder.reference()->p50_ms;
    layers_.Add("serve_p50_ms", p50_ms);
    layers_.Add("serve_p99_ms", ladder.reference()->p99_ms);
    layers_.Add("loadgen.late_p99_ms",
                Quantile(ladder.reference()->late_ms, 0.99));
    Note("serve latency at the reference rate: " +
         SampleSummary(ladder.reference()->latency_ms));
  }
  layers_.Add("serve_max_qps", ladder.max_qps);
  std::vector<double> all_us;
  for (const std::string& type : QueryTypes()) {
    const auto it = engine_us.find(type);
    const std::vector<double> none;
    const std::vector<double>& us = it == engine_us.end() ? none : it->second;
    layers_.Add("serve.engine_p50_us." + type, Quantile(us, 0.5));
    layers_.Add("serve.engine_p99_us." + type, Quantile(us, 0.99));
    all_us.insert(all_us.end(), us.begin(), us.end());
  }
  layers_.Add("serve.transport_p50_ms", p50_ms - Quantile(all_us, 0.5) / 1e3);
  for (const char* counter : {"serve.errors", "serve.rejected",
                              "serve.timeouts"}) {
    const auto it = delta.counters.find(counter);
    layers_.Add(counter, it == delta.counters.end()
                             ? 0.0
                             : static_cast<double>(it->second));
  }
}

void WorkloadRun::AddEndToEnd(const std::vector<double>& setup_s,
                              const std::vector<double>& run_s,
                              double snapshot_bytes) {
  Note("setup_s " + SampleSummary(setup_s));
  if (options_.trace) return;
  outcome_->Add("setup_s", Median(setup_s), "s");
  outcome_->Add("run_s", Median(run_s), "s");
  outcome_->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  outcome_->Add("snapshot_bytes", snapshot_bytes, "bytes");
}

void WorkloadRun::FinishTrace(double untraced_run_s, double traced_run_s) {
  layers_.Add("trace.overhead_ratio",
              untraced_run_s > 0.0 ? traced_run_s / untraced_run_s : 0.0);
  layers_.Add("host.steal_ms", HostStealMs() - steal_at_start_ms_);
  layers_.Add("error_ratio",
              outcome_->attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome_->failed) /
                        static_cast<double>(outcome_->attempted));
  const std::vector<Metric> metrics = layers_.Medians();
  const std::string table = FormatLayerTable(metrics);
  std::filesystem::create_directories(options_.out_dir);
  const std::string stem = options_.out_dir + "/" + options_.workload +
                           "-seed" + std::to_string(options_.seed);
  const Status wrote_trace = sfpm::obs::WriteTextFile(
      stem + ".trace.json",
      sfpm::obs::ChromeTraceJson(sfpm::obs::Tracer::Global().spans()));
  const Status wrote_table =
      sfpm::obs::WriteTextFile(stem + ".layers.txt", table);
  if (!wrote_trace.ok() || !wrote_table.ok()) {
    Note("could not write the trace files under " + options_.out_dir);
  } else {
    Note("chrome trace: " + stem + ".trace.json");
  }
  Note(table);
  outcome_->metrics = metrics;
}

}  // namespace

bool RunWorkload(const Options& options, Outcome* outcome) {
  const std::vector<std::string> names = {"city-pipeline", "mine-itemsets",
                                          "city-coloc"};
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return false;
  }
  WorkloadRun run(options, outcome);
  run.RunBatch(SpecFor(options.workload, options, SizesFor(options)));
  return true;
}

}  // namespace perfbench
