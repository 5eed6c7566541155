#include "serve_leg.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "serve/protocol.h"
#include "util/random.h"

namespace perfbench {
namespace {

using sfpm::serve::ServingSnapshot;

constexpr char kOkMarker[] = ",\"ok\":true,\"result\":";
/// Connections (one per load-generator thread). The server binds a
/// connection to one worker for its whole life, so more connections than
/// its 2 workers would leave the extra ones unserved.
constexpr size_t kConnections = 2;
/// A step's responses may trail its last send by this much before the
/// missing ones count as timed out.
constexpr double kDrainSeconds = 5.0;
/// Latency limit of a passing step, on its p99.
constexpr double kP99LimitMs = 1.0;

std::string Fixed(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::string Quoted(const std::string& text) {
  return "\"" + sfpm::obs::json::Escape(text) + "\"";
}

/// (district, slum) feature-index pairs whose envelopes intersect.
std::vector<std::pair<size_t, size_t>> DistrictSlumPairs(
    const ServingSnapshot& snap) {
  std::vector<std::pair<size_t, size_t>> pairs;
  const auto d = snap.layer_index.find("district");
  const auto s = snap.layer_index.find("slum");
  if (d == snap.layer_index.end() || s == snap.layer_index.end()) return pairs;
  const sfpm::feature::Layer& districts = snap.layers[d->second];
  const sfpm::feature::Layer& slums = snap.layers[s->second];
  for (size_t i = 0; i < districts.Size(); ++i) {
    const sfpm::geom::Envelope a = districts.at(i).geometry().GetEnvelope();
    for (size_t j = 0; j < slums.Size(); ++j) {
      const sfpm::geom::Envelope b = slums.at(j).geometry().GetEnvelope();
      if (a.Intersects(b)) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  // Requests leave at their scheduled times; responses are received as a
  // default client would, with the kernel's delayed ACKs left on.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One GET /metrics; true on a 200 with a non-empty exposition.
bool Scrape(uint16_t port) {
  const int fd = Connect(port);
  if (fd < 0) return false;
  const char request[] =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  bool ok = send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL) ==
            static_cast<ssize_t>(sizeof(request) - 1);
  std::string response;
  char buf[65536];
  while (ok) {
    const ssize_t got = recv(fd, buf, sizeof(buf), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    response.append(buf, static_cast<size_t>(got));
  }
  close(fd);
  return ok && response.find(" 200 ") != std::string::npos &&
         response.find("sfpm_serve_queries") != std::string::npos;
}

/// One connection's share of a step: request `i` is due at
/// `start + due_s[i]`. Responses are checked as they arrive, so none is
/// kept.
struct ConnectionRun {
  size_t pool_offset = 0;
  std::vector<double> due_s;  ///< Ascending.
  bool corrupt_first = false;  ///< Fault hook: flip a byte of response 0.
  std::vector<double> latency_ms;  ///< Of the answered requests, in order.
  std::vector<double> late_ms;
  uint64_t wrong = 0;  ///< Answers that differ from the reference.
  uint64_t backlog_end = 0;
  bool broken = false;
};

/// The part of a response a check compares: the `result` value, with the
/// volatile `status` members (uptime, in-flight, metrics, transport)
/// removed. Empty when the response is not an `ok:true` envelope.
std::string ComparableResult(const std::string& type,
                             const std::string& response) {
  const size_t at = response.find(kOkMarker);
  if (at == std::string::npos || response.empty() || response.back() != '}') {
    return "";
  }
  const size_t begin = at + sizeof(kOkMarker) - 1;
  std::string result = response.substr(begin, response.size() - begin - 1);
  if (type != "status") return result;
  auto parsed = sfpm::obs::json::Parse(result);
  if (!parsed.ok() || !parsed.value().is_object()) return "";
  // Everything but the volatile members: uptime, in-flight, metrics and
  // the other transport fields.
  std::string stable;
  for (const char* key : {"generation", "tool_version", "paths", "sections",
                          "layers", "patterns", "colocations",
                          "transactions"}) {
    const sfpm::obs::json::Value* value = parsed.value().Find(key);
    stable += std::string(key) + "=" +
              (value == nullptr ? "-" : sfpm::serve::ValueToJson(*value)) +
              ";";
  }
  return stable;
}

/// True when `response` answers request `i` of `run` as the in-process
/// engine did before the timed load.
bool Matches(const ConnectionRun& run, size_t i, const std::string& response,
             const std::vector<PooledRequest>& pool,
             const std::vector<std::string>& expected) {
  const size_t index = (run.pool_offset + i) % pool.size();
  const std::string id_prefix = "{\"id\":" + std::to_string(i) + ",";
  return response.compare(0, id_prefix.size(), id_prefix) == 0 &&
         ComparableResult(pool[index].type, response) == expected[index];
}

void DriveConnection(int fd, const std::vector<PooledRequest>& pool,
                     const std::vector<std::string>& expected, double start,
                     ConnectionRun* run) {
  const size_t n = run->due_s.size();
  const auto due = [&](size_t i) { return start + run->due_s[i]; };
  run->latency_ms.reserve(n);
  run->late_ms.reserve(n);
  sfpm::serve::FrameDecoder decoder(sfpm::serve::kHardMaxFrameBytes);
  std::string out;
  size_t out_sent = 0;
  size_t next = 0;
  bool backlog_taken = false;
  const double deadline = due(n - 1) + kDrainSeconds;
  char buf[1 << 16];
  while (run->latency_ms.size() < n) {
    double now = NowSeconds();
    if (now > deadline) break;
    while (next < n && due(next) <= now) {
      const PooledRequest& request =
          pool[(run->pool_offset + next) % pool.size()];
      out += sfpm::serve::EncodeFrame("{\"id\":" + std::to_string(next) +
                                      "," + request.body_tail);
      run->late_ms.push_back((now - due(next)) * 1e3);
      ++next;
    }
    if (!backlog_taken && next == n) {
      run->backlog_end = n - run->latency_ms.size();
      backlog_taken = true;
    }
    if (out_sent < out.size()) {
      const ssize_t sent = send(fd, out.data() + out_sent,
                                out.size() - out_sent,
                                MSG_NOSIGNAL | MSG_DONTWAIT);
      if (sent > 0) {
        out_sent += static_cast<size_t>(sent);
      } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        run->broken = true;
        break;
      }
      if (out_sent == out.size()) {
        out.clear();
        out_sent = 0;
      }
    }
    // Sleep until the next send is due, a response arrives, or (with
    // bytes still queued) the socket drains.
    const double wait =
        std::clamp(next < n ? due(next) - now : 0.05, 0.0, 0.05);
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    timespec ts{0, static_cast<long>(wait * 1e9)};
    const int ready = ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      run->broken = true;
      break;
    }
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    for (;;) {
      const ssize_t got = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        decoder.Feed(std::string_view(buf, static_cast<size_t>(got)));
        continue;
      }
      if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        run->broken = true;
      }
      break;
    }
    now = NowSeconds();
    for (;;) {
      auto frame = decoder.Next();
      if (!frame.ok()) {
        if (frame.status().code() != sfpm::StatusCode::kNotFound) {
          run->broken = true;
        }
        break;
      }
      const size_t i = run->latency_ms.size();
      if (i >= next) {  // More answers than requests sent.
        run->broken = true;
        break;
      }
      run->latency_ms.push_back((now - due(i)) * 1e3);
      std::string response = std::move(frame).value();
      if (run->corrupt_first && i == 0 && !response.empty()) {
        response.back() ^= 0x01;
      }
      if (!Matches(*run, i, response, pool, expected)) ++run->wrong;
    }
    if (run->broken) break;
  }
  if (!backlog_taken) run->backlog_end = n - run->latency_ms.size();
}

/// Sends `rate` requests a second for `seconds` over kConnections
/// connections. Arrivals are a Poisson process drawn from `seed`, as an
/// open population of clients sends them: requests sometimes arrive
/// together, as they do in real traffic.
StepResult RunStep(uint16_t port, const std::vector<PooledRequest>& pool,
                   const std::vector<std::string>& expected, double rate,
                   double seconds, uint64_t seed, bool corrupt) {
  StepResult step;
  step.rate = rate;
  const double per_connection = rate / static_cast<double>(kConnections);
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(per_connection * seconds));
  sfpm::Rng rng(seed);
  std::vector<ConnectionRun> runs(kConnections);
  std::vector<int> fds(kConnections, -1);
  double end = 0.0;  // Of the last send, from the step's start.
  for (size_t c = 0; c < kConnections; ++c) {
    runs[c].pool_offset = rng.NextUint64(pool.size());
    double t = 0.0;
    runs[c].due_s.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      t += -std::log1p(-rng.NextDouble()) / per_connection;
      runs[c].due_s.push_back(t);
    }
    end = std::max(end, t);
    runs[c].corrupt_first = corrupt && c == 0;
    fds[c] = Connect(port);
  }
  const double start = NowSeconds() + 0.02;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    if (fds[c] < 0) continue;  // Its requests all count as failed.
    threads.emplace_back([&, c] {
      // Wake for each send when it is due, not up to the default 50 us
      // slack later: the generator's lateness adds to every latency.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      DriveConnection(fds[c], pool, expected, start, &runs[c]);
    });
  }
  for (std::thread& t : threads) t.join();

  size_t answered_in_step = 0;
  for (size_t c = 0; c < kConnections; ++c) {
    if (fds[c] >= 0) close(fds[c]);
    const ConnectionRun& run = runs[c];
    step.attempted += run.due_s.size();
    step.failed += run.wrong + (run.due_s.size() - run.latency_ms.size());
    step.backlog_end += run.backlog_end;
    for (size_t i = 0; i < run.latency_ms.size(); ++i) {
      if (run.due_s[i] + run.latency_ms[i] / 1e3 <= end) ++answered_in_step;
    }
    step.latency_ms.insert(step.latency_ms.end(), run.latency_ms.begin(),
                           run.latency_ms.end());
    step.late_ms.insert(step.late_ms.end(), run.late_ms.begin(),
                        run.late_ms.end());
  }
  step.p50_ms = Quantile(step.latency_ms, 0.5);
  step.p99_ms = Quantile(step.latency_ms, 0.99);
  step.achieved = static_cast<double>(answered_in_step) / end;
  step.passed = step.failed == 0 && step.p99_ms <= kP99LimitMs &&
                static_cast<double>(step.backlog_end) <=
                    std::max(16.0, rate * 1e-3);
  return step;
}

}  // namespace

std::vector<PooledRequest> BuildRequestPool(const ServingSnapshot& snap,
                                            uint64_t seed, size_t count,
                                            bool with_pattern_scans) {
  sfpm::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5e7e);
  const std::vector<std::pair<size_t, size_t>> relate_pairs =
      DistrictSlumPairs(snap);
  sfpm::geom::Envelope extent;
  for (const sfpm::feature::Layer& layer : snap.layers) {
    extent.ExpandToInclude(layer.Bounds());
  }

  // The query types the snapshots can answer, in equal shares: there is
  // no recorded traffic to weight them by. Every seed gets the same count
  // of each type, so the mix's cost varies with the data, not the draw.
  std::vector<std::string> mix;
  if (with_pattern_scans && snap.patterns.has_value() &&
      !snap.patterns->itemsets.empty()) {
    mix.push_back("patterns");
    mix.push_back("rules");
  }
  if (snap.txdb.has_value() && snap.txdb->num_transactions > 0) {
    mix.push_back("predicates");
  }
  if (!snap.layers.empty()) mix.push_back("window");
  if (!relate_pairs.empty()) mix.push_back("relate");
  if (snap.colocations.has_value()) mix.push_back("colocations");
  mix.push_back("status");
  std::vector<std::string> types;
  types.reserve(count);
  for (size_t i = 0; i < count; ++i) types.push_back(mix[i % mix.size()]);
  rng.Shuffle(&types);

  std::vector<PooledRequest> pool;
  pool.reserve(count);
  for (const std::string& type : types) {
    std::string body = "\"q\":\"" + type + "\"";
    if (type == "patterns") {
      const auto& itemsets = snap.patterns->itemsets;
      const auto& anchor = itemsets[rng.NextUint64(itemsets.size())];
      const int64_t max_support = std::max<int64_t>(1, anchor.support);
      body += ",\"min_support\":" +
              std::to_string(rng.NextInt(1, max_support));
      body += ",\"min_size\":" + std::to_string(rng.NextInt(1, 3));
      if (rng.NextBool(0.3)) {
        const auto item = anchor.items[rng.NextUint64(anchor.items.size())];
        body += ",\"contains\":[" + Quoted(snap.patterns->labels[item]) + "]";
      }
      body += ",\"limit\":" + std::to_string(rng.NextInt(5, 25));
    } else if (type == "rules") {
      body += ",\"min_confidence\":" + Fixed(rng.NextDouble(0.5, 0.95));
      body += ",\"limit\":" + std::to_string(rng.NextInt(5, 25));
    } else if (type == "predicates") {
      body += ",\"transaction\":" +
              std::to_string(rng.NextUint64(snap.txdb->num_transactions));
    } else if (type == "window") {
      const sfpm::feature::Layer& layer =
          snap.layers[rng.NextUint64(snap.layers.size())];
      const double cx = rng.NextDouble(extent.min_x(), extent.max_x());
      const double cy = rng.NextDouble(extent.min_y(), extent.max_y());
      const double hw = extent.Width() * rng.NextDouble(0.01, 0.12);
      const double hh = extent.Height() * rng.NextDouble(0.01, 0.12);
      body += ",\"layer\":" + Quoted(layer.feature_type()) + ",\"bounds\":[" +
              Fixed(cx - hw) + "," + Fixed(cy - hh) + "," + Fixed(cx + hw) +
              "," + Fixed(cy + hh) + "]";
      body += ",\"limit\":" + std::to_string(rng.NextInt(20, 60));
    } else if (type == "relate") {
      const auto& [d, s] = relate_pairs[rng.NextUint64(relate_pairs.size())];
      const bool swap = rng.NextBool();
      body += std::string(",\"layer_a\":\"") + (swap ? "slum" : "district") +
              "\",\"id_a\":" + std::to_string(swap ? s : d) +
              ",\"layer_b\":\"" + (swap ? "district" : "slum") +
              "\",\"id_b\":" + std::to_string(swap ? d : s);
    } else if (type == "colocations") {
      body += ",\"min_prevalence\":" + Fixed(rng.NextDouble(0.1, 0.9));
      body += ",\"min_size\":" + std::to_string(rng.NextInt(2, 3));
      body += ",\"limit\":" + std::to_string(rng.NextInt(5, 25));
    }
    pool.push_back({type, body + "}"});
  }
  return pool;
}

EnginePass RunEnginePass(const sfpm::serve::QueryEngine& engine,
                         const std::vector<PooledRequest>& pool) {
  EnginePass pass;
  pass.results.reserve(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string payload =
        "{\"id\":" + std::to_string(i) + "," + pool[i].body_tail;
    const double t0 = NowSeconds();
    const sfpm::serve::HandleResult handled = engine.Handle(payload);
    pass.micros[pool[i].type].push_back((NowSeconds() - t0) * 1e6);
    pass.results.push_back(ComparableResult(pool[i].type, handled.response));
    if (pass.results.back().empty()) ++pass.failed;
  }
  return pass;
}

RunningServer::~RunningServer() {
  if (server != nullptr) {
    server->RequestShutdown();
    server->Wait();
    server.reset();
  }
}

std::unique_ptr<RunningServer> StartServer(
    const std::vector<std::string>& paths, double* load_ms,
    std::string* error) {
  auto running = std::make_unique<RunningServer>();
  const double t0 = NowSeconds();
  const sfpm::Status loaded = running->holder.Load(paths);
  *load_ms = (NowSeconds() - t0) * 1e3;
  if (!loaded.ok()) {
    *error = "snapshot load failed: " + loaded.ToString();
    return nullptr;
  }
  sfpm::serve::ServerOptions options;
  options.workers = 2;
  options.metrics_port = 0;
  running->server =
      std::make_unique<sfpm::serve::Server>(&running->holder, options);
  const sfpm::Status started = running->server->Start();
  if (!started.ok()) {
    running->server.reset();
    *error = "server start failed: " + started.ToString();
    return nullptr;
  }
  return running;
}

double LadderSeconds(const LadderOptions& options) {
  return options.warmup_seconds + options.reference_seconds +
         options.step_seconds * static_cast<double>(options.rates.size() - 1) +
         0.5;
}

LadderResult RunLadder(const RunningServer& server,
                       const std::vector<PooledRequest>& pool,
                       const std::vector<std::string>& expected,
                       const LadderOptions& options) {
  LadderResult result;
  const uint16_t metrics_port = server.server->metrics_port();
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> scrape_failures{0};
  std::thread scraper([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (!cv.wait_for(lock, std::chrono::seconds(1), [&] { return stop; })) {
      lock.unlock();
      scrapes.fetch_add(1);
      if (!Scrape(metrics_port)) scrape_failures.fetch_add(1);
      lock.lock();
    }
  });

  const StepResult warmup =
      RunStep(server.server->port(), pool, expected, options.reference_rate,
              options.warmup_seconds, options.seed * 64, false);
  result.attempted += warmup.attempted;
  result.failed += warmup.failed;

  bool reference_done = false;
  bool corrupt = options.corrupt_one_response;
  result.steps.reserve(options.rates.size());
  for (size_t s = 0; s < options.rates.size(); ++s) {
    const double rate = options.rates[s];
    const bool is_reference = rate == options.reference_rate;
    StepResult step = RunStep(
        server.server->port(), pool, expected, rate,
        is_reference ? options.reference_seconds : options.step_seconds,
        options.seed * 64 + 1 + s, is_reference && corrupt);
    result.attempted += step.attempted;
    result.failed += step.failed;
    if (step.passed) result.max_qps = std::max(result.max_qps, step.achieved);
    const bool stop_here = reference_done && !step.passed;
    result.steps.push_back(std::move(step));
    if (is_reference) reference_done = true;
    if (stop_here) break;
  }
  for (size_t s = 0; s < result.steps.size(); ++s) {
    if (result.steps[s].rate == options.reference_rate) {
      result.reference_index = s;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  scraper.join();
  result.attempted += scrapes.load();
  result.failed += scrape_failures.load();
  return result;
}

}  // namespace perfbench
