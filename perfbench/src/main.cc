// sfpm_perfbench: the end-to-end benchmark program (perfbench/README.md).
//
//   sfpm_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--tiny] [--threads N] [--fault snapshot|response]
//   sfpm_perfbench --list-metrics
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer ones. Exits 1 when an output
// check failed, 2 on a usage error. Temporary files live under
// .bench_work/ and are removed at exit; traced runs leave a Chrome trace
// and the per-layer table under .bench_out/.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "layers.h"
#include "obs/json.h"

namespace {

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "sfpm_perfbench: %s\n"
               "usage: sfpm_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--threads N] "
               "[--fault snapshot|response]\n",
               problem.c_str());
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

void ListMetrics() {
  std::printf("end_to_end\n");
  for (const char* line : {"setup_s s", "run_s s", "peak_rss_mb MiB",
                           "snapshot_bytes bytes"}) {
    std::printf("%s\n", line);
  }
  std::printf("per_layer\n");
  for (const auto& [name, unit] : perfbench::LayerMetricUnits()) {
    std::printf("%s %s\n", name.c_str(), unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string text;
    uint64_t number = 0;
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--workload") {
      if (!value(&options.workload)) return Usage("--workload needs a name");
    } else if (flag == "--seed") {
      if (!value(&text) || !ParseUnsigned(text, &options.seed)) {
        return Usage("--seed needs an unsigned integer");
      }
    } else if (flag == "--seconds") {
      if (!value(&text)) return Usage("--seconds needs a number");
      options.seconds = std::atof(text.c_str());
      if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
        return Usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (!value(&text) || (text != "0" && text != "1")) {
        return Usage("--trace needs 0 or 1");
      }
      options.trace = text == "1";
    } else if (flag == "--threads") {
      if (!value(&text) || !ParseUnsigned(text, &number) || number == 0 ||
          number > 64) {
        return Usage("--threads needs 1..64");
      }
      options.threads = static_cast<size_t>(number);
    } else if (flag == "--fault") {
      if (!value(&options.fault) ||
          (options.fault != "snapshot" && options.fault != "response")) {
        return Usage("--fault needs snapshot or response");
      }
    } else {
      return Usage("unknown argument " + flag);
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");

  options.work_dir = ".bench_work/" + options.workload + "-" +
                     std::to_string(static_cast<long>(getpid()));
  options.out_dir = ".bench_out";
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  perfbench::Outcome outcome;
  const bool known = perfbench::RunWorkload(options, &outcome);
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  std::filesystem::remove(".bench_work", ignored);  // Only when empty.
  if (!known) return Usage("unknown workload " + options.workload);

  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (outcome.attempted == 0) ++outcome.attempted;  // A set-up failure.
  sfpm::obs::json::Writer w;
  w.BeginObject();
  w.Key("correct").Bool(outcome.failed == 0);
  w.Key("attempted").Number(outcome.attempted);
  w.Key("failed").Number(outcome.failed);
  w.Key("metrics").BeginObject();
  for (const perfbench::Metric& m : outcome.metrics) {
    // JSON has no NaN or infinity; such a value is a fault of this program.
    w.Key(m.name).BeginObject();
    w.Key("value").Number(std::isfinite(m.value) ? m.value : 0.0);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
