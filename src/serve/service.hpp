// Long-lived, in-process planning service.
//
// Turns the one-request-per-call planners of core/ into a shared,
// thread-safe serving stack:
//
//   submit() ──> canonical key ──> plan cache ──hit──> answered inline
//                     │ miss
//                     ├──> identical request already in flight?
//                     │        └── yes: attach to it (coalescing) — the
//                     │            plan is computed exactly once and every
//                     │            waiter receives the same shared result
//                     └──> bounded FIFO queue (admission control: a full
//                          queue rejects at submit, it never blocks)
//                               │  at most `workers` jobs at a time
//                  one task per job on the process-wide executor
//                  (util/executor.hpp): plan, certify (Theorem 2), insert
//                  into the cache, answer every waiter
//
// The service owns no planner threads.  Each admitted job runs as one
// executor task; `workers` caps how many of this service's jobs run at
// once, and a finished job starts the next queued one.  Several services
// in one process share the executor's threads in FIFO order.
//
// Deadlines: a request may carry a per-request deadline (or inherit the
// service default).  A request whose deadline has passed when its job
// starts is rejected with DeadlineExpiredError without touching the
// planner — expired requests are never half-planned and never enter the
// cache.  An expired-at-submit request is only admitted if the cache can
// serve it instantly.
//
// Robustness: the service degrades before it falls over.  Requests carry
// cooperative CancelTokens (a deadline that passes mid-plan stops the
// planner within one candidate and reports CancelledError); a hysteresis
// overload ladder (serve/overload.hpp) caps search depth under pressure
// (DEGRADED) and sheds load with retry-after hints before the queue can
// grow unbounded (SHED); a per-key circuit breaker stops a poisoned
// request from repeatedly burning workers; and an optional snapshot file
// (serve/snapshot.hpp) makes restarts warm — the cache reloads
// bit-identical plans, and corrupt snapshots are rejected cleanly in
// favor of a cold start.
//
// Thread-safety contract: Platform/ThermalModel are immutable after
// construction (see thermal/model.hpp), the planners are reentrant pure
// functions of their arguments, and every piece of shared mutable state in
// this module (cache shards, queue, in-flight table, fingerprint memo,
// counters) is lock- or atomic-guarded.  The serve test battery runs under
// ThreadSanitizer in CI.
#pragma once

#include <array>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/identify.hpp"
#include "serve/errors.hpp"
#include "serve/overload.hpp"
#include "serve/plan_cache.hpp"

namespace foscil::serve {

struct InFlightRequest;

struct ServiceOptions {
  /// Most of this service's plans that run at once (each on an executor
  /// thread; the executor grows to at least this many threads).
  /// 0 = hardware_parallelism().
  unsigned workers = 0;
  std::size_t queue_capacity = 256; ///< pending (not yet started) requests
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 8;
  double default_deadline_s = 0.0;  ///< <= 0: no default deadline
  /// Degradation ladder watermarks and degraded-search caps.
  OverloadOptions overload{};
  /// Per-key failure isolation.
  BreakerOptions breaker{};
  /// Snapshot file for crash-safe warm restarts.  Empty: persistence off.
  /// Non-empty: the constructor attempts a warm start from this file (a
  /// missing/corrupt file is counted and ignored — the service starts
  /// cold), and stop() flushes a final snapshot to it.
  std::string snapshot_path;
  /// > 0: a background thread additionally flushes the snapshot every this
  /// many seconds, so a crash loses at most one period of cached plans.
  double snapshot_period_s = 0.0;
  /// When true (the default) a configured snapshot_path is warm-loaded in
  /// the constructor, before any request is admitted.  The network front end
  /// (serve/net/server.hpp) sets this false so it can open its listening
  /// socket first and answer READY=false while it restores — warm-up
  /// becomes an externally observable state instead of silent startup
  /// latency.  stop()/periodic flushing are unaffected by this flag.
  bool warm_load_at_construction = true;
};

struct PlanRequest {
  core::Platform platform;
  double t_max_c = 55.0;
  PlannerKind kind = PlannerKind::kAo;
  core::AoOptions ao{};   ///< used when kind == kAo
  core::PcoOptions pco{}; ///< used when kind == kPco (embeds its own ao)
  /// Seconds from submit until the request is no longer worth planning.
  /// < 0: inherit the service default; 0 or more: explicit budget.
  double deadline_s = -1.0;
};

struct PlanResponse {
  std::shared_ptr<const ServedPlan> plan;
  bool cache_hit = false;   ///< served from the cache without planning
  bool coalesced = false;   ///< attached to an identical in-flight request
  double queue_seconds = 0.0;  ///< submit -> job start (0 on fast path)
  double total_seconds = 0.0;  ///< submit -> response ready
};

/// What the callback form of PlanningService::submit delivers: the
/// response, or the error that failed the request after admission.
struct PlanOutcome {
  PlanResponse response;
  std::exception_ptr error;  ///< set instead of `response` on failure
};

/// Completion callback: called exactly once per admitted request, inline
/// within submit() for a cache hit and on an executor thread otherwise.
/// It must not throw, and must not block on other plans.
using PlanCallback = std::function<void(PlanOutcome)>;

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t fast_path_hits = 0;    ///< cache hits served at submit
  std::uint64_t coalesced = 0;         ///< attached to in-flight requests
  std::uint64_t planned = 0;           ///< planner invocations
  std::uint64_t completed = 0;         ///< responses delivered with a plan
  std::uint64_t failed = 0;            ///< planner threw; waiters got it
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_expired = 0;  ///< dead on arrival at submit
  std::uint64_t expired_in_queue = 0;  ///< dequeued past their deadline
  std::uint64_t cancelled_mid_plan = 0;  ///< waiters whose plan was cut short
  std::uint64_t degraded_served = 0;     ///< responses carrying degraded plans
  std::uint64_t rejected_overload = 0;   ///< shed at submit (OverloadedError)
  std::uint64_t breaker_rejections = 0;  ///< rejected by an open breaker
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_loads = 0;         ///< successful warm starts
  std::uint64_t snapshot_load_failures = 0; ///< corrupt/missing -> cold start
  std::uint64_t overload_transitions = 0;   ///< ladder state changes
  LoadState load_state = LoadState::kNormal;
  std::size_t queue_peak = 0;
  std::size_t workers = 0;  ///< cap on concurrently running plans
  CacheStats cache;
  /// EWMA of recent planner wall times and the retry-after hint it implies
  /// at the current queue depth — the same hint OverloadedError (and the
  /// wire SHED status) carries, surfaced so operators and health frames
  /// can see the advertised backoff.
  double ewma_plan_seconds = 0.0;
  double retry_after_hint_s = 0.0;
  /// Rejection/annotation breakdown on the stable wire status taxonomy
  /// (serve/errors.hpp StatusCode), indexed by status_index().  Derived
  /// from the counters above: every rejection the service can issue maps
  /// to exactly one code.  Framing-layer codes (MALFORMED, TOO_LARGE, ...)
  /// stay zero here — only the network tier can produce those; it counts
  /// them in its own ServerStats.
  std::array<std::uint64_t, kStatusCodeCount> rejections_by_code{};
};

/// Planning service on the process-wide executor.  All public methods are
/// thread-safe.
class PlanningService {
 public:
  explicit PlanningService(ServiceOptions options = {});
  ~PlanningService();

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Admit one request.  Returns a future that yields the response, or
  /// throws QueueFullError / DeadlineExpiredError / ServiceStoppedError /
  /// OverloadedError / BreakerOpenError at submit.  Failures after
  /// admission (expiry in queue, cancellation mid-plan, planner errors)
  /// are delivered through the future.
  [[nodiscard]] std::future<PlanResponse> submit(PlanRequest request);

  /// Callback form of submit(): the same admission, with the response (or
  /// the post-admission error) handed to `on_done` instead of a future.
  /// Submit-time rejections still throw, and then `on_done` is never
  /// called.
  void submit(PlanRequest request, PlanCallback on_done);

  /// Stop accepting work, wait until every admitted request is answered
  /// (queued jobs included), and (when a snapshot path is configured)
  /// flush a final snapshot.  Idempotent.
  void stop();

  /// Serialize the current cache contents (and the identify state, if one
  /// was set or warm-loaded) to `path` atomically.  Throws SnapshotError
  /// on I/O failure.  Counted in ServiceStats::snapshot_saves.
  void save_snapshot_file(const std::string& path);

  /// Warm-start from `path`: insert every snapshotted plan into the cache
  /// (bit-identical to when it was saved) and retain the identify state
  /// for loaded_identify_state().  Throws SnapshotError when the file is
  /// missing, corrupt, truncated, or version-mismatched — the cache is
  /// left untouched (cold) in that case.
  void load_snapshot_file(const std::string& path);

  /// Identify state restored by the last successful snapshot load, for the
  /// owner of the ThermalIdentifier to re-arm it after a warm restart.
  [[nodiscard]] std::optional<core::IdentifyState> loaded_identify_state()
      const;
  /// Attach the current identification state so subsequent snapshots
  /// persist it alongside the cached plans.
  void set_identify_state(core::IdentifyState state);

  /// Warm-inject one plan received from a peer shard (live cache handoff):
  /// inserted only when the key is absent — whatever this shard already
  /// cached is the truth and is never overwritten.  Returns true when the
  /// plan was inserted.  Thread-safe (the cache's own shard locks).
  bool insert_plan_if_absent(std::shared_ptr<const ServedPlan> plan);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  [[nodiscard]] unsigned worker_count() const;
  [[nodiscard]] LoadState load_state() const;

 private:
  struct Impl;
  void start(std::shared_ptr<InFlightRequest> job);
  void run_job(const std::shared_ptr<InFlightRequest>& job);
  void plan_and_answer(const std::shared_ptr<InFlightRequest>& job,
                       std::chrono::steady_clock::time_point started);
  void snapshot_loop();

  PlanCache cache_;
  std::unique_ptr<Impl> impl_;
  std::thread snapshot_thread_;
};

/// Plan one request directly on the calling thread — the planner run plus
/// the Theorem-2 certificate, exactly as a service job would compute it,
/// but with no cache, queue, or coalescing.  This is the serial baseline
/// for benchmarking and the oracle for the differential tests.
/// `degraded` stamps the plan and its key with the degraded bit; the
/// caller is responsible for having already capped the request's search
/// options (see degraded_ao_options) — the flag itself changes no math.
[[nodiscard]] std::shared_ptr<const ServedPlan> plan_direct(
    const PlanRequest& request, bool degraded = false);

}  // namespace foscil::serve
