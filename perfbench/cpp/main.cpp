// foscil repository benchmark.
//
//   foscil_perfbench --workload <serve-hot|serve-connect>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.jsonl>]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 runs one open-loop pass in which every other request is traced,
// replays the layer calls behind the workload's keys on the same inputs,
// and reports the per-layer metrics.  The last stdout line is the JSON
// result; lines before it start with '#'.  Why each workload exists is in
// README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "core/ao.hpp"
#include "core/audit.hpp"
#include "core/ideal.hpp"
#include "harness.hpp"
#include "linalg/lu.hpp"
#include "serve/cache_key.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/net/wire.hpp"
#include "sim/steady.hpp"
#include "util/parallel_for.hpp"

namespace {

namespace pb = perfbench;
namespace core = foscil::core;
namespace serve = foscil::serve;
namespace net = foscil::serve::net;
using pb::Clock;
using pb::Scope;
using pb::Tracer;

// Load sizes, chosen so a run's measured phase lasts about --seconds on a
// 4-vCPU x86-64 VM.
constexpr std::size_t kGrid = 4;  // the served platform: 4x4, full range
constexpr std::size_t kClients = 2;
constexpr double kRatePerClient = 30.0;  // open-loop requests per second
constexpr std::size_t kPasses = 5;
/// Closed-loop requests per client and burst.  A fresh connection costs
/// more, and each leaves a socket in TIME_WAIT, so serve-connect sends fewer.
constexpr std::size_t kHotBurstPerClient = 3000;
constexpr std::size_t kConnectBurstPerClient = 600;
constexpr std::size_t kWarmers = 4;  // concurrent warm-up connections
constexpr std::size_t kOracleKeys = 4;    // served plans re-planned directly
constexpr std::size_t kReplayKeys = 8;    // serve keys replayed layer by layer
constexpr std::size_t kHitReplayEvery = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  /// serve-connect: every request opens its own connection.
  [[nodiscard]] bool fresh_connections() const {
    return workload == "serve-connect";
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.workload != "serve-hot" && args.workload != "serve-connect")
    throw std::invalid_argument("unknown workload " + args.workload);
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0))
    throw std::invalid_argument("--seconds must be in [1, 600]");
  return args;
}

/// Everything one run measured and checked.
struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  pb::Tally tally;  ///< the open-loop passes: the latency sample
  pb::Tally burst;  ///< the closed-loop bursts: outcomes only
  double measured_s = 0.0;
  // End-to-end figures: medians over the passes and the bursts.
  double p50_ms = 0.0;
  std::vector<pb::Tail> tails;  ///< one per pass
  double tail_ms = 0.0;
  double throughput_per_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> calib_ms;
  std::vector<double> platform_build_s;
  Tracer tracer;
  // Per-layer samples gathered outside spans (seconds unless noted).
  std::vector<double> traced_latency_s;
  std::vector<double> batch_eval_per_candidate_s;
  std::vector<double> response_bytes;
  std::vector<double> evaluations;
  std::vector<double> m;
  std::vector<double> server_hit_s;
  std::vector<double> server_miss_s;
  std::vector<double> hit_client_minus_server_s;
  std::vector<double> generator_lag_s;
  std::vector<double> traced_server_s;  // parallel to traced_latency_s
  std::vector<double> untraced_latency_s;  // between the traced requests
  serve::ServiceStats service_delta;
  net::ClientStats client_stats;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (problems.size() < 8) problems.push_back(what);
    correct = false;
  }

  /// Every measured request, the bursts included.
  [[nodiscard]] pb::Tally outcomes() const {
    pb::Tally all = tally;
    all.merge(burst);
    return all;
  }
};

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

double nearest_rank(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string describe(const pb::Tail& tail) {
  std::ostringstream out;
  out << "p" << tail.percentile << " of " << tail.samples << " samples ("
      << tail.beyond << " beyond)";
  return out.str();
}

void calibrate(Report& report) {
  for (int i = 0; i < 3; ++i) report.calib_ms.push_back(pb::calibration_ms());
}

core::Platform timed_platform(Report& report) {
  const Clock::time_point start = Clock::now();
  core::Platform platform = core::make_grid_platform(
      kGrid, kGrid, foscil::power::VoltageLevels::paper_full_range());
  report.platform_build_s.push_back(pb::seconds_between(start, Clock::now()));
  return platform;
}

serve::PlanRequest plan_request(const core::Platform& platform, double t_max_c,
                                const core::AoOptions& ao) {
  serve::PlanRequest request;
  request.platform = platform;
  request.t_max_c = t_max_c;
  request.ao = ao;
  return request;
}

// ---- layer replay -----------------------------------------------------------

/// Per-platform inputs the replays reuse, built outside any span.
struct PlatformCtx {
  core::Platform platform;
  serve::CacheKey model_fp{};
  serve::CacheKey platform_fp{};
  std::unique_ptr<foscil::sim::SteadyStateAnalyzer> analyzer;
  foscil::linalg::Matrix system;

  explicit PlatformCtx(core::Platform p)
      : platform(std::move(p)),
        model_fp(serve::model_fingerprint(*platform.model)),
        platform_fp(serve::platform_fingerprint(platform)),
        analyzer(std::make_unique<foscil::sim::SteadyStateAnalyzer>(
            platform.model, foscil::sim::EvalEngine::kModal)),
        system(platform.model->system_matrix()) {}
};

/// plan_direct's planner work (AO, then the Theorem-2 certificate) under a
/// `root` span with one child per call.
struct TracedPlan {
  core::SchedulerResult result;
  bool ok = false;
};

TracedPlan traced_plan(const PlatformCtx& ctx, double t_max_c,
                       const core::AoOptions& ao, std::uint64_t request,
                       const char* root, Tracer& tracer) {
  TracedPlan out;
  const std::int64_t id = tracer.begin(root, request);
  try {
    {
      Scope span(tracer, "core.ao", request, id);
      out.result = core::run_ao(ctx.platform, t_max_c, ao);
    }
    double certificate = 0.0;
    {
      Scope span(tracer, "core.certificate", request, id);
      certificate = core::step_up_certificate_rise(ctx.platform.model,
                                                   out.result.schedule);
    }
    out.ok = certificate <= ctx.platform.rise_budget(t_max_c) * (1.0 + 1e-6);
  } catch (const std::exception&) {
    out.ok = false;
  }
  tracer.end(id);
  return out;
}

/// Wire codec round trip of one request and its response: encode, frame,
/// reassemble, decode.  Returns the response frame size, 0 when the round
/// trip changed the request or the plan.
std::size_t codec_round_trip(const PlatformCtx& ctx, double t_max_c,
                             const core::AoOptions& ao,
                             const serve::ServedPlan& plan,
                             std::uint64_t request) {
  net::WirePlanRequest wire;
  wire.platform_fp = ctx.platform_fp;
  wire.t_max_c = t_max_c;
  wire.ao = ao;
  net::WirePlanResponse response;
  response.cache_hit = true;
  response.plan = plan;
  const std::string request_frame = net::encode_frame(
      net::FrameType::kPlanRequest, request, net::encode_plan_request(wire));
  const std::string response_frame =
      net::encode_frame(net::FrameType::kPlanResponse, request,
                        net::encode_plan_response(response));
  try {
    net::FrameAssembler assembler;
    net::Frame frame;
    assembler.feed(request_frame.data(), request_frame.size());
    using Result = net::FrameAssembler::Result;
    const bool got_request = assembler.next(&frame) == Result::kFrame;
    const net::WirePlanRequest decoded_request =
        net::decode_plan_request(frame.body);
    assembler.feed(response_frame.data(), response_frame.size());
    const bool got_response = assembler.next(&frame) == Result::kFrame;
    const net::WirePlanResponse decoded =
        net::decode_plan_response(frame.body);
    const bool same =
        got_request && got_response && decoded_request.t_max_c == t_max_c &&
        serve::plans_bit_identical(decoded.plan.result, plan.result);
    return same ? response_frame.size() : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

/// Replays one planned request's remaining layer calls on its inputs: the
/// seed phase (system inverse, ideal voltages), one candidate per
/// adjustable core at the plan's m (schedule build, batched evaluation),
/// the cache key, the wire codec, and AO with automatic fan-out.
void replay_layers(const PlatformCtx& ctx, double t_max_c,
                   const core::AoOptions& ao, const TracedPlan& plan,
                   std::uint64_t request, Report& report) {
  Tracer& tracer = report.tracer;
  Scope root(tracer, "replay", request);
  const auto& model = *ctx.platform.model;
  {
    Scope span(tracer, "serve.plan_key", request, root.id());
    const serve::CacheKey key =
        serve::plan_key(ctx.model_fp, ctx.platform, t_max_c,
                        serve::PlannerKind::kAo, ao);
    report.check(key == serve::plan_key(ctx.platform, t_max_c,
                                        serve::PlannerKind::kAo, ao),
                 "plan_key overloads disagree");
  }
  {
    Scope span(tracer, "linalg.inverse", request, root.id());
    const foscil::linalg::Matrix inverse = foscil::linalg::inverse(ctx.system);
    report.check(inverse.rows() == ctx.system.rows(), "inverse shape");
  }
  core::IdealVoltages ideal;
  {
    Scope span(tracer, "core.ideal", request, root.id());
    ideal = core::ideal_constant_voltages(
        model, ctx.platform.rise_budget(t_max_c) - ao.t_max_margin,
        ctx.platform.levels.highest());
  }
  if (!plan.ok) return;  // no m to evaluate at
  report.evaluations.push_back(static_cast<double>(plan.result.evaluations));
  report.m.push_back(static_cast<double>(plan.result.m));
  const auto cores = core::detail::make_oscillations(
      ideal.voltages, ctx.platform.levels, ao.mode_choice);
  std::vector<foscil::sched::PeriodicSchedule> candidates;
  for (std::size_t j = 0; j < cores.size(); ++j) {
    if (!cores[j].oscillating || cores[j].ratio_high <= 0.0) continue;
    auto candidate = cores;
    candidate[j].ratio_high =
        std::max(0.0, candidate[j].ratio_high - ao.t_unit_fraction);
    Scope span(tracer, "sched.build_schedule", request, root.id());
    candidates.push_back(core::detail::build_oscillating_schedule(
        candidate, ao.base_period, plan.result.m, ao.transition_overhead));
  }
  if (!candidates.empty()) {
    const Clock::time_point start = Clock::now();
    const auto rises =
        ctx.analyzer->batch_stable_core_rises(candidates.data(),
                                              candidates.size());
    const Clock::time_point end = Clock::now();
    tracer.add("sim.batch_eval", start, end, request, root.id());
    report.batch_eval_per_candidate_s.push_back(
        pb::seconds_between(start, end) /
        static_cast<double>(candidates.size()));
    report.check(rises.size() == candidates.size(), "batch size");
  }
  serve::ServedPlan served;
  served.result = plan.result;
  {
    Scope span(tracer, "net.codec", request, root.id());
    const std::size_t bytes =
        codec_round_trip(ctx, t_max_c, ao, served, request);
    report.check(bytes > 0, "wire codec round trip changed a plan");
    report.response_bytes.push_back(static_cast<double>(bytes));
  }
  core::AoOptions automatic = ao;
  automatic.scan_threads = 0;
  core::SchedulerResult result;
  {
    Scope span(tracer, "core.ao_auto", request, root.id());
    result = core::run_ao(ctx.platform, t_max_c, automatic);
  }
  report.check(serve::plans_bit_identical(result, plan.result),
               "automatic fan-out changed a plan");
}

/// In-process submit -> get on keys the service already caches.
void replay_submit_hits(serve::PlanningService& service,
                        const std::vector<serve::PlanRequest>& requests,
                        Report& report) {
  std::uint64_t id = 0;
  for (const auto& request : requests) {
    const Clock::time_point start = Clock::now();
    const serve::PlanResponse response = service.submit(request).get();
    const Clock::time_point end = Clock::now();
    report.tracer.add("serve.submit_hit", start, end, id++);
    report.check(response.cache_hit, "submit on a cached key missed");
  }
}

void measure_parallel_for(Report& report) {
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point start = Clock::now();
    foscil::parallel_for(4, [](std::size_t) {}, 4);
    report.tracer.add("util.parallel_for", start, Clock::now(),
                      static_cast<std::uint64_t>(i));
  }
}

// ---- serve workloads --------------------------------------------------------

/// A 4x4 full-range platform behind an in-process PlanServer with service
/// defaults, on an ephemeral loopback port.  Ready when construction returns.
class ServeStack {
 public:
  explicit ServeStack(Report& report) : platform_(timed_platform(report)) {
    service_ = std::make_unique<serve::PlanningService>();
    server_ = std::make_unique<net::PlanServer>(*service_, platform_);
    port_ = server_->listen();
    loop_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& error) {
        std::cerr << "server loop failed: " << error.what() << "\n";
      }
      loop_done_.store(true);
    });
    while (!server_->ready() && !loop_done_.load()) std::this_thread::yield();
    if (!server_->ready()) {
      loop_.join();
      throw std::runtime_error("server never became ready");
    }
  }
  ~ServeStack() {
    server_->shutdown();
    loop_.join();
    service_->stop();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  [[nodiscard]] const core::Platform& platform() const { return platform_; }
  [[nodiscard]] serve::PlanningService& service() { return *service_; }

  [[nodiscard]] std::unique_ptr<net::NetClient> client(std::uint64_t seed) const {
    net::ClientOptions options;
    options.backoff_seed = seed | 1u;  // nonzero pins the retry sleeps
    return std::make_unique<net::NetClient>(
        std::vector<net::Endpoint>{net::Endpoint{"127.0.0.1", port_}},
        platform_, options);
  }

 private:
  core::Platform platform_;
  std::unique_ptr<serve::PlanningService> service_;
  std::unique_ptr<net::PlanServer> server_;
  std::uint16_t port_ = 0;
  std::atomic<bool> loop_done_{false};
  std::thread loop_;
};

/// The hot keys: T_max 50, 51, ..., 65 C with default AO options.
std::vector<net::WirePlanRequest> hot_wires() {
  std::vector<net::WirePlanRequest> wires(pb::kHotKeys);
  for (std::size_t k = 0; k < wires.size(); ++k)
    wires[k].t_max_c = 50.0 + static_cast<double>(k);
  return wires;
}

void add_stats(net::ClientStats& to, const net::ClientStats& from) {
  to.retries += from.retries;
  to.reconnects += from.reconnects;
  to.transport_errors += from.transport_errors;
}

/// One measuring thread: its connection, unless every request opens its
/// own, and its log of the measured phase.
struct ClientLog {
  std::unique_ptr<net::NetClient> client;  ///< null on serve-connect
  std::vector<double> server_hit_s;
  std::vector<double> server_miss_s;
  std::vector<double> hit_client_minus_server_s;
  std::vector<double> lag_s;
  std::vector<double> traced_latency_s;
  std::vector<double> traced_server_s;
  std::vector<double> untraced_latency_s;
  std::map<std::size_t, serve::ServedPlan> first_plans;  // by key index
  net::ClientStats stats;  ///< of the one-shot clients on serve-connect
  bool codec_ok = true;
  Tracer tracer;

  explicit ClientLog(Clock::time_point origin) : tracer(origin) {}
};

/// One request's end-to-end outcome.
struct Outcome {
  double latency_s = 0.0;
  bool ok = false;
  double throughput = 0.0;  ///< eq. (5) of the served plan
  net::WirePlanResponse response;
};

/// Plans one key through `log.client`, or without one through a fresh
/// client that connects, plans and closes, as a one-shot command-line
/// client does.  A NetClientError, or a plan without a passing certificate,
/// is a failure.
Outcome request_once(const ServeStack& stack, const net::WirePlanRequest& wire,
                     std::uint64_t request, ClientLog& log) {
  Outcome out;
  std::unique_ptr<net::NetClient> fresh;
  try {
    if (!log.client) fresh = stack.client(request);
    out.response = (fresh ? *fresh : *log.client).plan(wire);
    out.ok = out.response.plan.certified_safe;
    out.throughput = out.response.plan.result.throughput;
  } catch (const std::exception&) {  // NetClientError, or a decode defect
    out.ok = false;
  }
  if (fresh) add_stats(log.stats, fresh->stats());  // failed requests too
  return out;
}

/// Send one request, time it from `due`, and log what the layers reported.
Outcome send_one(const ServeStack& stack, const net::WirePlanRequest& wire,
                 std::size_t key, Clock::time_point due, std::uint64_t request,
                 bool traced, bool keep_plan, ClientLog& log) {
  const Clock::time_point sent = Clock::now();
  log.lag_s.push_back(pb::seconds_between(due, sent));
  std::int64_t span = -1;
  if (traced) span = log.tracer.begin("request", request);
  Outcome out = request_once(stack, wire, request, log);
  if (traced) log.tracer.end(span);
  const Clock::time_point done = Clock::now();
  out.latency_s = pb::seconds_between(due, done);
  if (!out.ok) return out;
  const double server_s = out.response.server_seconds;
  (out.response.cache_hit ? log.server_hit_s : log.server_miss_s)
      .push_back(server_s);
  if (out.response.cache_hit)
    log.hit_client_minus_server_s.push_back(
        pb::seconds_between(sent, done) - server_s);
  if (traced) {
    log.traced_latency_s.push_back(out.latency_s);
    log.traced_server_s.push_back(server_s);
  } else {
    log.untraced_latency_s.push_back(out.latency_s);
  }
  if (keep_plan && !log.first_plans.count(key))
    log.first_plans.emplace(key, std::move(out.response.plan));
  return out;
}

void merge_logs(std::vector<std::unique_ptr<ClientLog>>& logs, bool traced,
                Report& report) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (auto& log : logs) {
    report.check(log->codec_ok, "wire codec round trip changed a plan");
    append(report.generator_lag_s, log->lag_s);
    if (!traced) continue;
    append(report.server_hit_s, log->server_hit_s);
    append(report.server_miss_s, log->server_miss_s);
    append(report.hit_client_minus_server_s, log->hit_client_minus_server_s);
    append(report.traced_latency_s, log->traced_latency_s);
    append(report.traced_server_s, log->traced_server_s);
    append(report.untraced_latency_s, log->untraced_latency_s);
    report.tracer.append(log->tracer);
    add_stats(report.client_stats, log->stats);
    if (log->client) add_stats(report.client_stats, log->client->stats());
  }
}

/// Served plans must equal plan_direct on the same key, bit for bit.
void oracle_check(const core::Platform& platform,
                  const std::map<std::size_t, serve::ServedPlan>& served,
                  const std::vector<net::WirePlanRequest>& wires,
                  Report& report) {
  std::size_t checked = 0;
  for (const auto& [key, plan] : served) {
    if (checked++ == kOracleKeys) break;
    const pb::Planned direct = pb::plan_timed(
        plan_request(platform, wires[key].t_max_c, wires[key].ao));
    report.check(direct.ok, "plan_direct failed on a served key: " +
                                direct.error);
    if (direct.ok)
      report.check(
          serve::plans_bit_identical(direct.plan->result, plan.result) &&
              direct.plan->key == plan.key,
          "served plan differs from plan_direct for the same key");
  }
}

serve::ServiceStats stats_delta(const serve::ServiceStats& before,
                                const serve::ServiceStats& after) {
  serve::ServiceStats d = after;
  d.submitted -= before.submitted;
  d.fast_path_hits -= before.fast_path_hits;
  d.coalesced -= before.coalesced;
  d.planned -= before.planned;
  d.cache.evictions -= before.cache.evictions;
  return d;
}

std::shared_ptr<const serve::ServedPlan> cached_plan(
    ServeStack& stack, const net::WirePlanRequest& wire) {
  return stack.service().cache().peek(
      serve::plan_key(stack.platform(), wire.t_max_c, serve::PlannerKind::kAo,
                      wire.ao));
}

/// Replays the planner layers on kReplayKeys of the hot keys, serially,
/// plus the in-process hit path on every cached one.
void replay_serve_keys(ServeStack& stack,
                       const std::vector<net::WirePlanRequest>& wires,
                       Report& report) {
  const PlatformCtx ctx(stack.platform());
  for (std::uint64_t id = 0; id < kReplayKeys; ++id) {
    const std::size_t key = (id * 5) % wires.size();
    core::AoOptions ao = wires[key].ao;
    ao.scan_threads = 1;
    const TracedPlan plan =
        traced_plan(ctx, wires[key].t_max_c, ao, id, "replay.plan",
                    report.tracer);
    const auto served = cached_plan(stack, wires[key]);
    report.check(plan.ok && served != nullptr &&
                     serve::plans_bit_identical(plan.result, served->result),
                 "traced replay differs from the served plan");
    replay_layers(ctx, wires[key].t_max_c, ao, plan, id, report);
  }
  std::vector<serve::PlanRequest> cached;
  for (const auto& wire : wires)
    if (cached_plan(stack, wire) != nullptr)
      cached.push_back(plan_request(stack.platform(), wire.t_max_c, wire.ao));
  replay_submit_hits(stack.service(), cached, report);
}

std::unique_ptr<ServeStack> serve_setup(const Args& args, Report& report) {
  const auto wires = hot_wires();
  std::unique_ptr<ServeStack> stack;
  constexpr int kRepeats = 3;
  for (int rep = 0; rep < kRepeats; ++rep) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = std::make_unique<ServeStack>(report);
    // Warm the hot set through the client, kWarmers connections at once.
    std::atomic<bool> warmed{true};
    std::vector<std::thread> warmers;
    for (std::size_t c = 0; c < kWarmers; ++c)
      warmers.emplace_back([&, c] {
        auto client = stack->client(args.seed * 131 + c);
        for (std::size_t k = c; k < wires.size(); k += kWarmers) {
          try {
            if (!client->plan(wires[k]).plan.certified_safe) warmed = false;
          } catch (const std::exception&) {
            warmed = false;
          }
        }
      });
    for (auto& t : warmers) t.join();
    report.setup_s.push_back(pb::seconds_between(start, Clock::now()));
    report.check(warmed.load(), "hot-set warm-up failed");
  }
  return stack;
}

/// Closed loop: each client sends `per_client` requests back to back over
/// its schedule's keys.  Returns completions per second: the capacity of
/// the path, which the open-loop passes, running below it, cannot show.
double burst(const ServeStack& stack,
             std::vector<std::unique_ptr<ClientLog>>& logs,
             const std::vector<std::vector<pb::Arrival>>& schedules,
             const std::vector<net::WirePlanRequest>& wires,
             std::size_t per_client, std::uint64_t first_request,
             Report& report) {
  std::vector<pb::Tally> tallies(logs.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < logs.size(); ++c)
    threads.emplace_back([&, c] {
      const auto& schedule = schedules[c];
      for (std::size_t i = 0; i < per_client; ++i) {
        const Clock::time_point sent = Clock::now();
        const Outcome o = request_once(
            stack, wires[schedule[i % schedule.size()].key],
            first_request + c * per_client + i, *logs[c]);
        tallies[c].record(pb::seconds_between(sent, Clock::now()), o.ok,
                          o.ok ? o.throughput : 0.0);
      }
    });
  for (auto& t : threads) t.join();
  const double elapsed = pb::seconds_between(start, Clock::now());
  std::size_t succeeded = 0;
  for (const pb::Tally& t : tallies) {
    succeeded += t.attempted - t.failed;
    report.burst.merge(t);
  }
  return static_cast<double>(succeeded) / elapsed;
}

/// Open loop: each client follows its own Poisson schedule and times each
/// request from when it was due, so a stall also delays the requests queued
/// behind it.  The schedule runs `passes` times, one after the other, and
/// each pass's p50 and tail are kept; with `bursts`, a closed-loop burst
/// follows each pass.  In a traced phase every other arrival runs inside a
/// span, and the untraced ones in between are its baseline.
void serve_phase(ServeStack& stack, const Args& args, double seconds,
                 std::size_t passes, bool traced, bool bursts,
                 Report& report) {
  const auto wires = hot_wires();
  const double window = seconds / static_cast<double>(passes);
  std::vector<std::vector<pb::Arrival>> schedules;
  for (std::size_t c = 0; c < kClients; ++c)
    schedules.push_back(pb::poisson_schedule(args.seed * 7919 + c,
                                             kRatePerClient, window,
                                             pb::kHotKeys));
  const PlatformCtx ctx(stack.platform());
  const Clock::time_point first = Clock::now();
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (std::size_t c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<ClientLog>(first));
    if (args.fresh_connections()) continue;
    logs.back()->client = stack.client(args.seed * 104729 + c);
    (void)logs.back()->client->plan(wires[c]);  // connect outside the phase
  }
  const std::size_t per_burst = args.fresh_connections()
                                    ? kConnectBurstPerClient
                                    : kHotBurstPerClient;
  std::vector<double> pass_p50_ms;
  std::vector<double> burst_throughput;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    std::vector<pb::Tally> tallies(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        ClientLog& log = *logs[c];
        for (std::size_t j = 0; j < schedules[c].size(); ++j) {
          const pb::Arrival& a = schedules[c][j];
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.due_s));
          const Clock::time_point spin_from =
              due - std::chrono::microseconds(200);
          if (Clock::now() < spin_from)
            std::this_thread::sleep_until(spin_from);
          while (Clock::now() < due) {
          }
          const std::uint64_t request = (pass << 48) | (c << 32) | j;
          const Outcome o = send_one(stack, wires[a.key], a.key, due, request,
                                     traced && j % 2 == 1, c == 0, log);
          tallies[c].record(o.latency_s, o.ok, o.ok ? o.throughput : 0.0);
          if (traced && (j + 1) % kHitReplayEvery == 0 &&
              log.first_plans.count(a.key)) {
            Scope span(log.tracer, "net.codec", request);
            log.codec_ok &= codec_round_trip(ctx, wires[a.key].t_max_c,
                                             wires[a.key].ao,
                                             log.first_plans.at(a.key),
                                             request) > 0;
          }
        }
      });
    for (auto& t : threads) t.join();
    pb::Tally pass_tally;
    for (const pb::Tally& t : tallies) pass_tally.merge(t);
    pass_p50_ms.push_back(pb::median(pass_tally.latencies_ms));
    report.tails.push_back(pb::tail_of(pass_tally.latencies_ms));
    report.tally.merge(pass_tally);
    if (bursts)
      burst_throughput.push_back(burst(stack, logs, schedules, wires,
                                       per_burst, (pass + 1) << 40, report));
  }
  report.measured_s = pb::seconds_between(first, Clock::now());
  std::vector<double> tail_ms;
  for (const pb::Tail& tail : report.tails) tail_ms.push_back(tail.value);
  report.p50_ms = pb::median(pass_p50_ms);
  report.tail_ms = pb::median(tail_ms);
  report.throughput_per_s = pb::median(burst_throughput);
  merge_logs(logs, traced, report);
  oracle_check(stack.platform(), logs[0]->first_plans, wires, report);
}

void run_serve(const Args& args, Report& report) {
  auto stack = serve_setup(args, report);
  calibrate(report);
  if (!args.trace) {
    serve_phase(*stack, args, args.seconds, kPasses, false, true, report);
    calibrate(report);
    return;
  }
  const serve::ServiceStats before = stack->service().stats();
  serve_phase(*stack, args, args.seconds / 2.0, 1, true, false, report);
  report.service_delta = stats_delta(before, stack->service().stats());
  calibrate(report);
  replay_serve_keys(*stack, hot_wires(), report);
}

// ---- output -----------------------------------------------------------------

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> end_to_end(const Report& report) {
  const pb::Tally t = report.outcomes();
  return {
      {"latency_ms_p50", report.p50_ms, "ms"},
      {"latency_ms_tail", report.tail_ms, "ms"},
      {"throughput_per_s", report.throughput_per_s, "1/s"},
      {"success_rate", 1.0 - t.error_rate(), "ratio"},
      {"plan_quality", t.plan_quality(), "speed"},
      {"setup_s", pb::median(report.setup_s), "s"},
      {"peak_rss_mb", pb::peak_rss_mb(), "MiB"},
  };
}

double median_of(const Tracer& tracer, const char* name, double scale) {
  return pb::median(tracer.durations(name)) * scale;
}

std::vector<Metric> per_layer(const Report& report) {
  const Tracer& tr = report.tracer;
  const double ao_ms = median_of(tr, "core.ao", 1e3);
  const double ideal_ms = median_of(tr, "core.ideal", 1e3);
  const double codec_us = median_of(tr, "net.codec", 1e6);
  const serve::ServiceStats& d = report.service_delta;
  const double transport_us =
      report.hit_client_minus_server_s.empty()
          ? 0.0
          : us(pb::median(report.hit_client_minus_server_s)) - codec_us;
  // The server's own time plus the replayed codec, as a share of each
  // traced request.
  std::vector<double> coverage;
  for (std::size_t i = 0; i < report.traced_server_s.size(); ++i)
    coverage.push_back(std::min(
        1.0, (report.traced_server_s[i] + codec_us * 1e-6) /
                 report.traced_latency_s[i]));
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  return {
      {"thermal.platform_build_ms", ms(pb::median(report.platform_build_s)), "ms"},
      {"linalg.inverse_ms", median_of(tr, "linalg.inverse", 1e3), "ms"},
      {"core.ideal_ms", ideal_ms, "ms"},
      {"core.ao_ms", ao_ms, "ms"},
      {"core.search_ms", ao_ms - ideal_ms, "ms"},
      {"core.ao_evaluations", mean(report.evaluations), "count"},
      {"core.ao_m", mean(report.m), "count"},
      {"sim.batch_eval_us", us(pb::median(report.batch_eval_per_candidate_s)), "us"},
      {"sched.build_schedule_us", median_of(tr, "sched.build_schedule", 1e6), "us"},
      {"core.certificate_ms", median_of(tr, "core.certificate", 1e3), "ms"},
      {"util.parallel_for_us", median_of(tr, "util.parallel_for", 1e6), "us"},
      {"core.ao_auto_ms", median_of(tr, "core.ao_auto", 1e3), "ms"},
      {"serve.plan_key_us", median_of(tr, "serve.plan_key", 1e6), "us"},
      {"serve.submit_hit_us", median_of(tr, "serve.submit_hit", 1e6), "us"},
      {"net.codec_us", codec_us, "us"},
      {"net.response_bytes", pb::median(report.response_bytes), "bytes"},
      {"net.transport_us", transport_us, "us"},
      {"serve.server_hit_ms", ms(pb::median(report.server_hit_s)), "ms"},
      {"serve.server_miss_ms", ms(pb::median(report.server_miss_s)), "ms"},
      {"serve.hit_ratio",
       d.submitted == 0 ? 0.0
                        : static_cast<double>(d.fast_path_hits) /
                              static_cast<double>(d.submitted),
       "ratio"},
      {"serve.planned", static_cast<double>(d.planned), "count"},
      {"serve.coalesced", static_cast<double>(d.coalesced), "count"},
      {"serve.evictions", static_cast<double>(d.cache.evictions), "count"},
      {"serve.queue_peak", static_cast<double>(d.queue_peak), "count"},
      {"net.retries", static_cast<double>(report.client_stats.retries), "count"},
      {"net.reconnects", static_cast<double>(report.client_stats.reconnects), "count"},
      {"net.transport_errors",
       static_cast<double>(report.client_stats.transport_errors), "count"},
      {"host.calib_ms", pb::median(report.calib_ms), "ms"},
      {"bench.generator_lag_ms",
       report.generator_lag_s.empty()
           ? 0.0
           : pb::tail_of(report.generator_lag_s).value * 1e3,
       "ms"},
      {"bench.trace_overhead",
       pb::median(report.traced_latency_s) /
               pb::median(report.untraced_latency_s) -
           1.0,
       "ratio"},
      {"bench.span_coverage", pb::median(coverage), "ratio"},
      {"bench.error_rate", report.outcomes().error_rate(), "ratio"},
  };
}

void print_result(const Args& args, const Report& report) {
  const pb::Tally t = report.outcomes();
  std::cout << "# workload " << args.workload << " seed " << args.seed
            << " trace " << args.trace << ": " << t.attempted
            << " attempted (" << report.burst.attempted << " in bursts), "
            << t.failed << " failed, measured " << report.measured_s
            << " s\n";
  if (report.tails.size() == 1) {
    std::cout << "# latency tail = " << describe(report.tails.front()) << "\n";
  } else if (!report.tails.empty()) {
    std::cout << "# latency tail = median over " << report.tails.size()
              << " passes of each pass's tail:";
    for (const pb::Tail& tail : report.tails)
      std::cout << " " << tail.value << " ms (" << describe(tail) << ")";
    std::cout << "\n";
  }
  std::cout << "# latency ms at p10 p25 p50 p75 p90 p99 max, all passes:";
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0})
    std::cout << " " << nearest_rank(report.tally.latencies_ms, p);
  std::cout << "\n";
  if (!report.generator_lag_s.empty()) {
    const pb::Tail lag = pb::tail_of(report.generator_lag_s);
    std::cout << "# generator lag ms: median "
              << ms(pb::median(report.generator_lag_s)) << ", tail "
              << ms(lag.value) << " (" << describe(lag) << ")\n";
  }
  std::cout << "# error_rate " << t.error_rate() << "\n";
  std::cout << "# setup_s samples:";
  for (const double v : report.setup_s) std::cout << " " << v;
  std::cout << "\n";
  std::cout << "# host.calib_ms before/after:";
  for (const double c : report.calib_ms) std::cout << " " << c;
  std::cout << "\n";
  for (const auto& problem : report.problems)
    std::cout << "# CHECK FAILED: " << problem << "\n";
  const std::vector<Metric> metrics =
      args.trace ? per_layer(report) : end_to_end(report);
  for (const Metric& m : metrics)
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    if (args.trace) measure_parallel_for(report);
    run_serve(args, report);
    report.check(report.tally.attempted > 0, "no request attempted");
    if (args.trace && !args.trace_out.empty())
      report.tracer.write_jsonl(args.trace_out);
    print_result(args, report);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "foscil_perfbench: " << error.what() << "\n";
    return 2;
  }
}
