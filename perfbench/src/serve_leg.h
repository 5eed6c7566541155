#ifndef PERFBENCH_SERVE_LEG_H_
#define PERFBENCH_SERVE_LEG_H_

// The serving side of the benchmark: a seeded request pool over whatever
// the served snapshots answer, the in-process reference answers, and an
// open-loop rate ladder against an in-process serve::Server.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/server.h"
#include "serve/snapshot_holder.h"

namespace perfbench {

/// One pooled request: its query type and its JSON body without the
/// opening brace, so an `"id"` member can be prepended at send time.
struct PooledRequest {
  std::string type;
  std::string body_tail;  ///< `"q":...}` — the object after its `{`.
};

/// Builds `count` distinct requests over the query types the snapshot
/// answers (`status` always; the rest by section presence). `patterns`
/// and `rules` scan the whole pattern set per request, so callers serving
/// arbitrary pattern sets leave them out with `with_pattern_scans`.
std::vector<PooledRequest> BuildRequestPool(
    const sfpm::serve::ServingSnapshot& snapshot, uint64_t seed,
    size_t count, bool with_pattern_scans);

/// One pass of the in-process engine over the pool.
struct EnginePass {
  std::map<std::string, std::vector<double>> micros;    ///< Per type.
  std::vector<std::string> results;                     ///< Comparable.
  uint64_t failed = 0;  ///< Error envelopes (a pool the engine refuses).
};

/// Answers every pooled request with `engine.Handle`, one at a time.
EnginePass RunEnginePass(const sfpm::serve::QueryEngine& engine,
                         const std::vector<PooledRequest>& pool);

/// Settings of one open-loop ladder.
struct LadderOptions {
  std::vector<double> rates = {2000, 5000, 10000, 20000, 40000};
  /// The rate of serve_p50_ms and serve_p99_ms.
  double reference_rate = 5000;
  double reference_seconds = 3.0;  ///< Duration of the reference step.
  double step_seconds = 0.9;       ///< Duration of every other step.
  /// Unmeasured warm-up at the reference rate before the first step
  /// (its responses are still checked).
  double warmup_seconds = 0.5;
  uint64_t seed = 0;  ///< Of the arrival schedules.
  /// Test hook: flip one byte of one reference-step response.
  bool corrupt_one_response = false;
};

/// One ladder step's outcome.
struct StepResult {
  double rate = 0.0;
  /// Requests answered while the step was sending, per second of it.
  double achieved = 0.0;
  double p50_ms = 0.0;  ///< Of all the step's latencies.
  double p99_ms = 0.0;
  std::vector<double> latency_ms;  ///< From each scheduled send time.
  std::vector<double> late_ms;     ///< Actual minus scheduled send time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t backlog_end = 0;  ///< Unanswered when the last send was due.
  bool passed = false;
};

/// Upper bound on the wall time of RunLadder, drain time aside.
double LadderSeconds(const LadderOptions& options);

/// What a serve leg reports.
struct LadderResult {
  std::vector<StepResult> steps;
  size_t reference_index = SIZE_MAX;  ///< Into `steps`.
  double max_qps = 0.0;  ///< Achieved rate of the highest passing step.
  uint64_t attempted = 0;  ///< Requests and /metrics scrapes.
  uint64_t failed = 0;

  /// The reference-rate step; nullptr when it did not run.
  const StepResult* reference() const {
    return reference_index < steps.size() ? &steps[reference_index] : nullptr;
  }
};

/// A started in-process server over a loaded holder: 2 workers, the
/// metrics endpoint on an ephemeral port, default slow-query capture.
/// The server keeps a pointer to `holder`, so neither moves.
struct RunningServer {
  RunningServer() = default;
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  /// Shuts the server down and joins its threads.
  ~RunningServer();

  sfpm::serve::SnapshotHolder holder;
  std::unique_ptr<sfpm::serve::Server> server;
};

/// Loads `paths` and starts a server over them. `load_ms` receives the
/// SnapshotHolder::Load wall time.
std::unique_ptr<RunningServer> StartServer(
    const std::vector<std::string>& paths, double* load_ms, std::string* error);

/// Drives the ladder (ascending; it stops after the first failing step
/// above the reference rate) with a once-per-second /metrics scrape, and
/// checks every response against `expected` (parallel to `pool`).
LadderResult RunLadder(const RunningServer& server,
                       const std::vector<PooledRequest>& pool,
                       const std::vector<std::string>& expected,
                       const LadderOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LEG_H_
