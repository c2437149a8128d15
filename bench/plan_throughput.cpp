// X8 — Plan-request throughput of the serving stack (DESIGN.md §10).
//
// Workload model: a fleet of client threads repeatedly asks for plans from
// a small set of distinct (platform, T_max) points — the shape a thermal
// management daemon sees in production, where the same operating points
// recur every control epoch.  The serial baseline answers every request
// with a fresh planner run (plan_direct); the service answers through
// executor jobs (at most `workers` at once) + sharded LRU cache.
//
// Acceptance gate (ISSUE 3, enforced by --smoke in CI and checked on every
// full run):
//   * every served plan is bit-identical to the direct planner's output,
//   * the repeated-request workload hits the cache >= 95% of the time,
//   * the 8-worker service clears >= 4x the serial request throughput.
// The gate rides on the cache path on purpose: CI boxes may expose a
// single core, where worker scaling on unique requests is reported but
// cannot be guaranteed.
//
// --json PATH writes the measurements as a BENCH_serve.json record so CI
// can archive a perf trajectory next to the test results.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"
#include "util/table.hpp"

using namespace foscil;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  std::size_t rows = 2;
  std::size_t cols = 2;
  int levels = 2;
  int unique = 8;    ///< distinct T_max points
  int repeats = 32;  ///< how often each point recurs in the stream
  int clients = 8;   ///< concurrent client threads in the timed phase
  /// Planner evaluation engine for every request (modal is the production
  /// default; --engine reference re-baselines the pre-modal numbers so both
  /// can be archived side by side).
  sim::EvalEngine engine = sim::EvalEngine::kModal;
};

std::vector<serve::PlanRequest> unique_requests(const Workload& w) {
  const core::Platform platform =
      bench::paper_platform(w.rows, w.cols, w.levels);
  std::vector<serve::PlanRequest> requests;
  for (int i = 0; i < w.unique; ++i) {
    serve::PlanRequest request;
    request.platform = platform;
    request.t_max_c = 50.0 + 20.0 * static_cast<double>(i) /
                                 static_cast<double>(w.unique);
    request.ao.eval_engine = w.engine;
    request.pco.ao.eval_engine = w.engine;
    requests.push_back(std::move(request));
  }
  return requests;
}

struct ServedRun {
  unsigned workers = 0;
  double seconds = 0.0;      ///< warm-up + timed phase, full stream
  double plans_per_s = 0.0;  ///< requests answered per second, full stream
  double hit_rate = 0.0;
  double hit_latency_us = 0.0;  ///< mean fast-path latency in the timed phase
  bool bit_identical = true;
  bool warm_loaded = false;   ///< started from a restored snapshot
  std::uint64_t planned = 0;  ///< planner runs this service performed
};

/// Answer the full stream (repeats x unique requests) through a service
/// with `workers` workers: one warm-up round (the only planner runs), then
/// `clients` closed-loop client threads splitting the remaining rounds.
ServedRun run_served(
    const Workload& w, unsigned workers,
    const std::vector<serve::PlanRequest>& requests,
    const std::vector<std::shared_ptr<const serve::ServedPlan>>& direct,
    const char* load_snapshot = nullptr,
    const char* save_snapshot = nullptr) {
  serve::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity =
      static_cast<std::size_t>(w.unique * w.repeats) + 16;
  if (load_snapshot != nullptr) options.snapshot_path = load_snapshot;
  serve::PlanningService service(options);

  ServedRun run;
  run.workers = workers;
  run.warm_loaded = service.stats().snapshot_loads > 0;
  const double start = now_s();
  for (int u = 0; u < w.unique; ++u) {
    const serve::PlanResponse response =
        service.submit(requests[static_cast<std::size_t>(u)]).get();
    if (!serve::plans_bit_identical(
            response.plan->result,
            direct[static_cast<std::size_t>(u)]->result))
      run.bit_identical = false;
  }

  const int remaining = w.unique * (w.repeats - 1);
  std::vector<std::thread> fleet;
  std::vector<int> mismatches(static_cast<std::size_t>(w.clients), 0);
  std::vector<double> hit_seconds(static_cast<std::size_t>(w.clients), 0.0);
  std::vector<int> served(static_cast<std::size_t>(w.clients), 0);
  for (int c = 0; c < w.clients; ++c) {
    fleet.emplace_back([&, c] {
      // Client c walks the request ring starting at its own offset.
      for (int i = c; i < remaining; i += w.clients) {
        const std::size_t u = static_cast<std::size_t>(i % w.unique);
        const double t0 = now_s();
        const serve::PlanResponse response =
            service.submit(requests[u]).get();
        const std::size_t slot = static_cast<std::size_t>(c);
        hit_seconds[slot] += now_s() - t0;
        ++served[slot];
        if (!serve::plans_bit_identical(response.plan->result,
                                        direct[u]->result))
          ++mismatches[slot];
      }
    });
  }
  for (std::thread& client : fleet) client.join();
  run.seconds = now_s() - start;

  double latency = 0.0;
  int answered = 0;
  for (int c = 0; c < w.clients; ++c) {
    const std::size_t slot = static_cast<std::size_t>(c);
    if (mismatches[slot] > 0) run.bit_identical = false;
    latency += hit_seconds[slot];
    answered += served[slot];
  }
  run.hit_latency_us =
      answered > 0 ? 1e6 * latency / static_cast<double>(answered) : 0.0;
  run.plans_per_s =
      static_cast<double>(w.unique * w.repeats) / run.seconds;
  run.hit_rate = service.stats().cache.hit_rate();
  run.planned = service.stats().planned;
  if (save_snapshot != nullptr) service.save_snapshot_file(save_snapshot);
  return run;
}

/// Uncached scaling: all-distinct requests submitted at once, reported but
/// never gated (a single-core CI box cannot scale planner runs).
double run_unique_scaling(unsigned workers,
                          const std::vector<serve::PlanRequest>& requests) {
  serve::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = requests.size() + 16;
  serve::PlanningService service(options);
  const double start = now_s();
  std::vector<std::future<serve::PlanResponse>> pending;
  for (const serve::PlanRequest& request : requests)
    pending.push_back(service.submit(request));
  for (auto& future : pending) (void)future.get();
  return now_s() - start;
}

void write_json(const char* path, const Workload& w, double serial_seconds,
                const std::vector<ServedRun>& runs, bool gate_passed) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const double serial_rate =
      static_cast<double>(w.unique * w.repeats) / serial_seconds;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"plan_throughput\",\n");
  std::fprintf(out, "  \"engine\": \"%s\",\n", sim::eval_engine_name(w.engine));
  std::fprintf(out, "  \"platform\": \"grid%zux%zu\",\n", w.rows, w.cols);
  std::fprintf(out, "  \"levels\": %d,\n", w.levels);
  std::fprintf(out, "  \"unique_requests\": %d,\n", w.unique);
  std::fprintf(out, "  \"repeats\": %d,\n", w.repeats);
  std::fprintf(out, "  \"clients\": %d,\n", w.clients);
  std::fprintf(out, "  \"serial_seconds\": %.6f,\n", serial_seconds);
  std::fprintf(out, "  \"serial_plans_per_s\": %.2f,\n", serial_rate);
  std::fprintf(out, "  \"served\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ServedRun& run = runs[i];
    std::fprintf(out,
                 "    {\"workers\": %u, \"seconds\": %.6f, "
                 "\"plans_per_s\": %.2f, \"speedup_vs_serial\": %.2f, "
                 "\"hit_rate\": %.4f, \"hit_latency_us\": %.2f, "
                 "\"bit_identical\": %s}%s\n",
                 run.workers, run.seconds, run.plans_per_s,
                 serial_seconds / run.seconds, run.hit_rate,
                 run.hit_latency_us, run.bit_identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"gate\": {\"min_speedup_8w\": 4.0, "
               "\"min_hit_rate\": 0.95, \"passed\": %s}\n",
               gate_passed ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  Workload w;
  const char* json_path = nullptr;
  const char* load_snapshot = nullptr;
  const char* save_snapshot = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--save-snapshot") == 0 && i + 1 < argc) {
      save_snapshot = argv[++i];
    } else if (std::strcmp(argv[i], "--load-snapshot") == 0 && i + 1 < argc) {
      load_snapshot = argv[++i];
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "modal") == 0) {
        w.engine = sim::EvalEngine::kModal;
      } else if (std::strcmp(name, "reference") == 0) {
        w.engine = sim::EvalEngine::kReference;
      } else {
        std::fprintf(stderr, "unknown engine '%s'\n", name);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] "
                   "[--engine modal|reference] "
                   "[--save-snapshot PATH] [--load-snapshot PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    // Reduced matrix for CI: one worker count, smaller stream.  repeats
    // stays >= 24 so the warm-up round cannot drag the hit rate under the
    // 95% gate (hit rate of the stream = 1 - 1/repeats).
    w.unique = 4;
    w.repeats = 24;
  }

  bench::print_header("Plan-request throughput: serving stack vs serial",
                      "DESIGN.md §10 / EXPERIMENTS.md X8 (beyond the paper)");
  std::printf("workload: %d unique (platform, T_max) points x %d repeats, "
              "%d client threads, grid %zux%zu, %d levels, %s engine\n",
              w.unique, w.repeats, w.clients, w.rows, w.cols, w.levels,
              sim::eval_engine_name(w.engine));
  std::printf("hardware concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  const std::vector<serve::PlanRequest> requests = unique_requests(w);

  // Serial baseline + differential oracle: every request in the stream is
  // a fresh planner run on this thread.
  std::vector<std::shared_ptr<const serve::ServedPlan>> direct;
  const double serial_start = now_s();
  for (int u = 0; u < w.unique; ++u)
    direct.push_back(
        serve::plan_direct(requests[static_cast<std::size_t>(u)]));
  for (int r = 1; r < w.repeats; ++r)
    for (int u = 0; u < w.unique; ++u)
      (void)serve::plan_direct(requests[static_cast<std::size_t>(u)]);
  const double serial_seconds = now_s() - serial_start;
  const double serial_rate =
      static_cast<double>(w.unique * w.repeats) / serial_seconds;
  std::printf("serial (plan_direct): %.3f s, %.1f plans/s\n\n",
              serial_seconds, serial_rate);

  const std::vector<unsigned> worker_counts =
      smoke ? std::vector<unsigned>{8} : std::vector<unsigned>{1, 2, 4, 8};
  std::vector<ServedRun> runs;
  TextTable table({"workers", "seconds", "plans/s", "speedup", "hit rate",
                   "hit latency"});
  for (unsigned workers : worker_counts) {
    runs.push_back(run_served(w, workers, requests, direct, load_snapshot,
                              save_snapshot));
    const ServedRun& run = runs.back();
    table.add_row({std::to_string(run.workers), fmt(run.seconds, 3),
                   fmt(run.plans_per_s, 1),
                   fmt(serial_seconds / run.seconds, 2) + "x",
                   fmt_percent(run.hit_rate),
                   fmt(run.hit_latency_us, 1) + " us"});
  }
  std::printf("%s\n", table.str().c_str());

  if (!smoke) {
    std::printf("uncached scaling (all-distinct requests, reported only — "
                "gate rides on the cache path):\n");
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      const double seconds = run_unique_scaling(workers, requests);
      std::printf("  %u workers: %.3f s for %d unique plans\n", workers,
                  seconds, w.unique);
    }
    std::printf("\n");
  }

  // Acceptance gate on the 8-worker run.
  const ServedRun& gated = runs.back();
  const double speedup = serial_seconds / gated.seconds;
  bool passed = true;
  if (!gated.bit_identical) {
    std::printf("GATE FAIL: served plan diverged from plan_direct\n");
    passed = false;
  }
  if (gated.hit_rate < 0.95) {
    std::printf("GATE FAIL: hit rate %.4f < 0.95\n", gated.hit_rate);
    passed = false;
  }
  if (speedup < 4.0) {
    std::printf("GATE FAIL: speedup %.2fx < 4x at %u workers\n", speedup,
                gated.workers);
    passed = false;
  }
  // Crash-recovery mode: the run must actually have started warm, and the
  // restored cache alone must answer the whole stream — zero planner runs,
  // every response bit-identical to plan_direct (checked above).
  if (load_snapshot != nullptr) {
    if (!gated.warm_loaded) {
      std::printf("GATE FAIL: --load-snapshot given but the start was cold\n");
      passed = false;
    }
    if (gated.planned > 0) {
      std::printf("GATE FAIL: %llu planner runs on a restored cache "
                  "(expected 0)\n",
                  static_cast<unsigned long long>(gated.planned));
      passed = false;
    }
    if (passed)
      std::printf("restored cache: warm start, 0 planner runs, "
                  "bit-identical to plan_direct\n");
  }
  if (passed)
    std::printf("gate passed: bit-identical, hit rate %.1f%%, %.1fx vs "
                "serial at %u workers\n",
                100.0 * gated.hit_rate, speedup, gated.workers);

  if (json_path != nullptr)
    write_json(json_path, w, serial_seconds, runs, passed);
  return passed ? 0 : 1;
}
