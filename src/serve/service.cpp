#include "serve/service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <unordered_map>

#include "core/audit.hpp"
#include "serve/snapshot.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace foscil::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::shared_ptr<const ServedPlan> plan_direct(const PlanRequest& request,
                                              bool degraded) {
  FOSCIL_EXPECTS(request.platform.model != nullptr);
  auto plan = std::make_shared<ServedPlan>();
  plan->kind = request.kind;
  plan->degraded = degraded;
  plan->key = plan_key(request.platform, request.t_max_c, request.kind,
                       request.ao, request.pco, degraded);
  plan->result =
      request.kind == PlannerKind::kAo
          ? core::run_ao(request.platform, request.t_max_c, request.ao)
          : core::run_pco(request.platform, request.t_max_c, request.pco);
  plan->certificate_rise = core::step_up_certificate_rise(
      request.platform.model, plan->result.schedule);
  const double budget = request.platform.rise_budget(request.t_max_c);
  plan->certified_safe = plan->certificate_rise <= budget * (1.0 + 1e-6);
  core::AuditCounters::instance().record_certificate(plan->certified_safe);
  return plan;
}

/// One admitted cache-miss request plus everyone waiting on its result.
/// Lives in the queue and the in-flight table; guarded by Impl::mutex.
struct InFlightRequest {
  CacheKey key{};
  PlanRequest request;
  Clock::time_point submitted{};
  bool degraded = false;  ///< planned with capped options, keyed separately
  /// Shared cancellation: carries the max deadline over all waiters (no
  /// deadline at all once a deadline-free waiter joins), so the planner
  /// stops as soon as nobody's budget can still be met.  The token's own
  /// atomics make deadline extension by coalescing submitters race-free
  /// against the planner polling it.
  CancelToken token;

  struct Waiter {
    PlanCallback done;
    bool coalesced = false;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point submitted{};
  };
  std::vector<Waiter> waiters;
};

struct PlanningService::Impl {
  explicit Impl(const ServiceOptions& opts)
      : options(opts), overload(opts.overload), breaker(opts.breaker) {}

  ServiceOptions options;
  OverloadController overload;
  CircuitBreaker breaker;

  std::mutex stop_mutex;  ///< serializes stop() callers; never nested
  /// Serializes every snapshot writer (periodic flusher, stop()'s final
  /// flush, explicit save_snapshot_file callers).  All writers stage
  /// through the same `path + ".tmp"` file; without this, a SIGTERM-driven
  /// final flush racing a background periodic flush interleaves two
  /// writers on that tmp file and can publish a corrupt snapshot.  Never
  /// held together with `mutex` or `stop_mutex`.
  std::mutex flush_mutex;
  bool final_flush_done = false;  ///< guarded by stop_mutex
  std::size_t worker_count = 0;   ///< cap on running jobs; set once

  std::mutex mutex;  ///< guards everything down to queue_peak
  std::condition_variable snapshot_tick;  ///< wakes the snapshot flusher
  std::condition_variable idle;           ///< running reached 0
  std::deque<std::shared_ptr<InFlightRequest>> queue;
  // Keyed by canonical request hash: an identical concurrent miss attaches
  // here instead of planning twice.  Entries stay until the plan (or its
  // failure) has been delivered, so attachment is race-free.
  std::unordered_map<CacheKey, std::shared_ptr<InFlightRequest>, CacheKeyHash>
      in_flight;
  std::size_t running = 0;  ///< jobs posted to the executor, not finished
  bool stopping = false;
  std::size_t queue_peak = 0;

  // Identification state carried by snapshots: set by set_identify_state,
  // refreshed by a successful warm load.
  std::mutex identify_mutex;
  std::optional<core::IdentifyState> identify;
  std::optional<core::IdentifyState> loaded_identify;

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> fast_path_hits{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> planned{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_expired{0};
  std::atomic<std::uint64_t> expired_in_queue{0};
  std::atomic<std::uint64_t> cancelled_mid_plan{0};
  std::atomic<std::uint64_t> degraded_served{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> breaker_rejections{0};
  std::atomic<std::uint64_t> snapshot_saves{0};
  std::atomic<std::uint64_t> snapshot_loads{0};
  std::atomic<std::uint64_t> snapshot_load_failures{0};
  /// EWMA of recent planner wall times, feeding the SHED retry-after hint.
  /// Plain exchange arithmetic (load/compute/store) — the hint is
  /// heuristic; a lost update between workers is harmless.
  std::atomic<double> ewma_plan_seconds{0.0};

  [[nodiscard]] double retry_after_hint(std::size_t queue_depth) const {
    const double per_plan = ewma_plan_seconds.load(std::memory_order_relaxed);
    const double backlog =
        per_plan * static_cast<double>(queue_depth) /
        static_cast<double>(std::max<std::size_t>(1, worker_count));
    return std::max(options.overload.min_retry_after_s, backlog);
  }

  void note_plan_seconds(double seconds) {
    const double old = ewma_plan_seconds.load(std::memory_order_relaxed);
    const double next = old == 0.0 ? seconds : 0.8 * old + 0.2 * seconds;
    ewma_plan_seconds.store(next, std::memory_order_relaxed);
  }

  /// The oldest queued job, when fewer than worker_count jobs run; claims
  /// its slot.  Requires `mutex`; the caller starts the job after
  /// unlocking.
  [[nodiscard]] std::shared_ptr<InFlightRequest> claim_next() {
    if (running >= worker_count || queue.empty()) return nullptr;
    std::shared_ptr<InFlightRequest> job = std::move(queue.front());
    queue.pop_front();
    ++running;
    return job;
  }
};

PlanningService::PlanningService(ServiceOptions options)
    : cache_(options.cache_capacity, options.cache_shards),
      impl_(std::make_unique<Impl>(options)) {
  FOSCIL_EXPECTS(options.queue_capacity >= 1);
  FOSCIL_EXPECTS(options.snapshot_period_s >= 0.0);
  // Warm start before any worker can race the cache: a corrupt, truncated,
  // version-mismatched, or missing snapshot is counted and ignored — the
  // snapshot is an optimization, never required for correctness.
  if (!options.snapshot_path.empty() && options.warm_load_at_construction) {
    try {
      load_snapshot_file(options.snapshot_path);
    } catch (const SnapshotError&) {
      impl_->snapshot_load_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const unsigned workers =
      options.workers == 0 ? hardware_parallelism() : options.workers;
  impl_->worker_count = workers;
  Executor::instance().reserve(workers);
  if (!options.snapshot_path.empty() && options.snapshot_period_s > 0.0)
    snapshot_thread_ = std::thread([this] { snapshot_loop(); });
}

PlanningService::~PlanningService() { stop(); }

void PlanningService::stop() {
  const std::lock_guard<std::mutex> stop_lock(impl_->stop_mutex);
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
    // Every admitted request is answered, never dropped: each finishing
    // job starts the next queued one, so running reaches 0 only once the
    // queue is empty too.
    impl_->idle.wait(lock, [this] { return impl_->running == 0; });
  }
  impl_->snapshot_tick.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  // Final flush after the jobs have drained, so the snapshot sees every
  // plan the service admitted.  Best-effort: a full disk must not turn
  // shutdown into a crash.
  if (!impl_->options.snapshot_path.empty() && !impl_->final_flush_done) {
    impl_->final_flush_done = true;
    try {
      save_snapshot_file(impl_->options.snapshot_path);
    } catch (const SnapshotError& error) {
      std::cerr << "foscil-serve: shutdown snapshot failed: " << error.what()
                << "\n";
    }
  }
}

std::future<PlanResponse> PlanningService::submit(PlanRequest request) {
  auto promise = std::make_shared<std::promise<PlanResponse>>();
  std::future<PlanResponse> future = promise->get_future();
  submit(std::move(request), [promise](PlanOutcome outcome) {
    if (outcome.error)
      promise->set_exception(std::move(outcome.error));
    else
      promise->set_value(std::move(outcome.response));
  });
  return future;
}

void PlanningService::submit(PlanRequest request, PlanCallback on_done) {
  FOSCIL_EXPECTS(on_done != nullptr);
  Impl& impl = *impl_;
  impl.submitted.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point now = Clock::now();

  const CacheKey model_fp =
      memoized_model_fingerprint(request.platform.model);
  const CacheKey full_key =
      plan_key(model_fp, request.platform, request.t_max_c, request.kind,
               request.ao, request.pco);

  // A hit is answered inline, on the caller's thread.
  const auto answer_hit = [&](std::shared_ptr<const ServedPlan> hit) {
    impl.fast_path_hits.fetch_add(1, std::memory_order_relaxed);
    impl.completed.fetch_add(1, std::memory_order_relaxed);
    PlanOutcome outcome;
    outcome.response.plan = std::move(hit);
    outcome.response.cache_hit = true;
    outcome.response.total_seconds = seconds_between(now, Clock::now());
    on_done(std::move(outcome));
  };

  // Fast path: a full-quality hit costs one fingerprint hash and one shard
  // lookup, and is served in every ladder state — degradation and load
  // shedding only gate *planning*, never cached answers.
  if (std::shared_ptr<const ServedPlan> hit = cache_.lookup(full_key)) {
    answer_hit(std::move(hit));
    return;
  }

  const double deadline_s = request.deadline_s >= 0.0
                                ? request.deadline_s
                                : impl.options.default_deadline_s;
  const bool has_deadline =
      request.deadline_s >= 0.0 || impl.options.default_deadline_s > 0.0;
  if (has_deadline && deadline_s <= 0.0) {
    // A miss with no time budget cannot be planned in time; reject now.
    impl.rejected_expired.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExpiredError();
  }

  // Degradation ladder: position depends on queue occupancy alone, so it
  // is evaluated (with hysteresis) on every miss.
  LoadState state;
  std::size_t queue_depth;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    if (impl.stopping) throw ServiceStoppedError();
    queue_depth = impl.queue.size();
    state = impl.overload.update(queue_depth, impl.options.queue_capacity);
  }
  if (state == LoadState::kShed) {
    impl.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    throw OverloadedError(impl.retry_after_hint(queue_depth));
  }

  CacheKey key = full_key;
  const bool degraded = state == LoadState::kDegraded;
  if (degraded) {
    // Cap the search extent (never the tolerances or the certificate), and
    // re-key: the degraded bit is part of the key schema, so this plan can
    // never collide with — or later shadow — the full-quality entry.
    if (request.kind == PlannerKind::kAo)
      request.ao = degraded_ao_options(request.ao, impl.options.overload);
    else
      request.pco = degraded_pco_options(request.pco, impl.options.overload);
    key = plan_key(model_fp, request.platform, request.t_max_c, request.kind,
                   request.ao, request.pco, true);
    if (std::shared_ptr<const ServedPlan> hit = cache_.lookup(key)) {
      impl.degraded_served.fetch_add(1, std::memory_order_relaxed);
      answer_hit(std::move(hit));
      return;
    }
  }

  InFlightRequest::Waiter waiter;
  waiter.done = std::move(on_done);
  waiter.submitted = now;
  waiter.has_deadline = has_deadline;
  if (has_deadline)
    waiter.deadline = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(deadline_s));

  std::shared_ptr<InFlightRequest> startable;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    if (impl.stopping) throw ServiceStoppedError();
    const auto in_flight = impl.in_flight.find(key);
    if (in_flight != impl.in_flight.end()) {
      // Keep the shared run alive while *any* waiter still has budget: the
      // token deadline is the max over waiters, and vanishes entirely once
      // a deadline-free waiter joins (extend past a cleared deadline is a
      // no-op, so the order of joins cannot resurrect one).
      if (waiter.has_deadline)
        in_flight->second->token.extend_deadline(waiter.deadline);
      else
        in_flight->second->token.clear_deadline();
      waiter.coalesced = true;
      impl.coalesced.fetch_add(1, std::memory_order_relaxed);
      in_flight->second->waiters.push_back(std::move(waiter));
      return;
    }
    if (impl.queue.size() >= impl.options.queue_capacity) {
      impl.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      throw QueueFullError();
    }
    // Breaker gate last: after the queue-capacity check, so a rejection
    // here can only mean "this key is poisoned", and a half-open trial is
    // only ever claimed by a request that is guaranteed a queue slot.
    try {
      impl.breaker.admit(key, now);
    } catch (const BreakerOpenError&) {
      impl.breaker_rejections.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    auto job = std::make_shared<InFlightRequest>();
    job->key = key;
    job->request = std::move(request);
    job->submitted = now;
    job->degraded = degraded;
    if (waiter.has_deadline) job->token.set_deadline(waiter.deadline);
    job->waiters.push_back(std::move(waiter));
    impl.in_flight.emplace(key, job);
    impl.queue.push_back(std::move(job));
    impl.queue_peak = std::max(impl.queue_peak, impl.queue.size());
    startable = impl.claim_next();
  }
  if (startable) start(std::move(startable));
}

void PlanningService::start(std::shared_ptr<InFlightRequest> job) {
  // The job's slot is already counted in `running`, so stop() (and with it
  // the destructor) waits for this task before the service goes away.
  Executor::instance().post(
      [this, job = std::move(job)] { run_job(job); });
}

void PlanningService::run_job(const std::shared_ptr<InFlightRequest>& job) {
  Impl& impl = *impl_;
  const Clock::time_point started = Clock::now();
  std::vector<InFlightRequest::Waiter> expired;
  bool abandon = false;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    // Deadline triage under the lock: waiters whose budget has already
    // passed are rejected before any planning happens.  New arrivals can
    // still coalesce onto this job until it completes.
    auto& waiters = job->waiters;
    for (auto it = waiters.begin(); it != waiters.end();) {
      if (it->has_deadline && it->deadline <= started) {
        expired.push_back(std::move(*it));
        it = waiters.erase(it);
      } else {
        ++it;
      }
    }
    abandon = waiters.empty();
    if (abandon) impl.in_flight.erase(job->key);
  }
  impl.expired_in_queue.fetch_add(static_cast<std::uint64_t>(expired.size()),
                                  std::memory_order_relaxed);
  for (auto& waiter : expired)
    waiter.done(PlanOutcome{{}, std::make_exception_ptr(DeadlineExpiredError())});

  if (abandon) {
    // The job may hold this key's half-open breaker trial; release it so
    // the abandoned run cannot jam the breaker open forever.  Nobody is
    // left to pay for this plan.
    impl.breaker.abandon_trial(job->key);
  } else {
    plan_and_answer(job, started);
  }

  std::shared_ptr<InFlightRequest> next;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    --impl.running;
    next = impl.claim_next();
    if (impl.running == 0) impl.idle.notify_all();
  }
  if (next) start(std::move(next));
}

void PlanningService::plan_and_answer(
    const std::shared_ptr<InFlightRequest>& job,
    Clock::time_point started) {
  Impl& impl = *impl_;
  // Re-probe the cache: an identical key can land between this job's
  // admission and its start (the in-flight entry is erased only after the
  // cache insert, so the window is tiny but real).
  std::shared_ptr<const ServedPlan> plan = cache_.peek(job->key);
  const bool served_from_cache = plan != nullptr;
  std::exception_ptr error;
  bool cancelled = false;
  if (!plan) {
    try {
      impl.planned.fetch_add(1, std::memory_order_relaxed);
      // Attach the shared token so the planner stops within one candidate
      // evaluation once every waiter's deadline has passed (or the service
      // is tearing the job down).
      if (job->request.kind == PlannerKind::kAo)
        job->request.ao.cancel = &job->token;
      else
        job->request.pco.ao.cancel = &job->token;
      plan = plan_direct(job->request, job->degraded);
      FOSCIL_ASSERT(plan->key == job->key);
      cache_.insert(job->key, plan);
      impl.breaker.record_success(job->key);
      impl.note_plan_seconds(seconds_between(started, Clock::now()));
    } catch (const CancelledError&) {
      // Expected outcome, not a planner defect: no breaker strike, no
      // `failed` count — but the trial (if any) must be released.
      cancelled = true;
      impl.breaker.abandon_trial(job->key);
    } catch (const std::exception& e) {
      error = std::current_exception();
      impl.breaker.record_failure(job->key, e.what(), Clock::now());
    } catch (...) {
      error = std::current_exception();
      impl.breaker.record_failure(job->key, "unknown planner error",
                                  Clock::now());
    }
  }

  std::vector<InFlightRequest::Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    impl.in_flight.erase(job->key);
    waiters = std::move(job->waiters);
  }
  const Clock::time_point finished = Clock::now();
  for (auto& waiter : waiters) {
    if (cancelled) {
      impl.cancelled_mid_plan.fetch_add(1, std::memory_order_relaxed);
      waiter.done(PlanOutcome{{}, std::make_exception_ptr(CancelledError())});
      continue;
    }
    if (error) {
      impl.failed.fetch_add(1, std::memory_order_relaxed);
      waiter.done(PlanOutcome{{}, error});
      continue;
    }
    PlanOutcome outcome;
    outcome.response.plan = plan;
    outcome.response.cache_hit = served_from_cache;
    outcome.response.coalesced = waiter.coalesced;
    outcome.response.queue_seconds = seconds_between(waiter.submitted, started);
    outcome.response.total_seconds =
        seconds_between(waiter.submitted, finished);
    impl.completed.fetch_add(1, std::memory_order_relaxed);
    if (plan->degraded)
      impl.degraded_served.fetch_add(1, std::memory_order_relaxed);
    waiter.done(std::move(outcome));
  }
}

void PlanningService::snapshot_loop() {
  Impl& impl = *impl_;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(impl.options.snapshot_period_s));
  std::unique_lock<std::mutex> lock(impl.mutex);
  for (;;) {
    impl.snapshot_tick.wait_for(lock, period, [&] { return impl.stopping; });
    if (impl.stopping) return;  // stop() writes the final snapshot itself
    lock.unlock();
    try {
      // Never publish an empty snapshot: a tick that fires before the
      // first plan lands (or before a warm restore begins) would clobber
      // a good on-disk snapshot with nothing.
      if (cache_.stats().entries > 0)
        save_snapshot_file(impl.options.snapshot_path);
    } catch (const SnapshotError& snapshot_error) {
      // Periodic flushes are best-effort; the next tick retries.
      std::cerr << "foscil-serve: periodic snapshot failed: "
                << snapshot_error.what() << "\n";
    }
    lock.lock();
  }
}

void PlanningService::save_snapshot_file(const std::string& path) {
  // One writer at a time: concurrent flushes (periodic thread vs. a
  // SIGTERM-driven final flush vs. explicit callers) would interleave on
  // the shared tmp file.  The cache export itself is taken inside the
  // critical section so the last flush to finish also wrote the freshest
  // content.
  const std::lock_guard<std::mutex> flush_lock(impl_->flush_mutex);
  SnapshotData data;
  for (const auto& plan : cache_.export_entries()) data.plans.push_back(*plan);
  {
    const std::lock_guard<std::mutex> lock(impl_->identify_mutex);
    data.identify = impl_->identify;
  }
  save_snapshot(path, data);
  impl_->snapshot_saves.fetch_add(1, std::memory_order_relaxed);
}

void PlanningService::load_snapshot_file(const std::string& path) {
  SnapshotData data = load_snapshot(path);  // throws before any mutation
  for (ServedPlan& plan : data.plans) {
    const CacheKey key = plan.key;
    cache_.insert(key, std::make_shared<const ServedPlan>(std::move(plan)));
  }
  if (data.identify.has_value()) {
    const std::lock_guard<std::mutex> lock(impl_->identify_mutex);
    impl_->identify = data.identify;
    impl_->loaded_identify = std::move(data.identify);
  }
  impl_->snapshot_loads.fetch_add(1, std::memory_order_relaxed);
}

bool PlanningService::insert_plan_if_absent(
    std::shared_ptr<const ServedPlan> plan) {
  FOSCIL_EXPECTS(plan != nullptr);
  const CacheKey key = plan->key;
  return cache_.insert_if_absent(key, std::move(plan));
}

std::optional<core::IdentifyState> PlanningService::loaded_identify_state()
    const {
  const std::lock_guard<std::mutex> lock(impl_->identify_mutex);
  return impl_->loaded_identify;
}

void PlanningService::set_identify_state(core::IdentifyState state) {
  const std::lock_guard<std::mutex> lock(impl_->identify_mutex);
  impl_->identify = std::move(state);
}

ServiceStats PlanningService::stats() const {
  ServiceStats stats;
  stats.submitted = impl_->submitted.load(std::memory_order_relaxed);
  stats.fast_path_hits =
      impl_->fast_path_hits.load(std::memory_order_relaxed);
  stats.coalesced = impl_->coalesced.load(std::memory_order_relaxed);
  stats.planned = impl_->planned.load(std::memory_order_relaxed);
  stats.completed = impl_->completed.load(std::memory_order_relaxed);
  stats.failed = impl_->failed.load(std::memory_order_relaxed);
  stats.rejected_queue_full =
      impl_->rejected_queue_full.load(std::memory_order_relaxed);
  stats.rejected_expired =
      impl_->rejected_expired.load(std::memory_order_relaxed);
  stats.expired_in_queue =
      impl_->expired_in_queue.load(std::memory_order_relaxed);
  stats.cancelled_mid_plan =
      impl_->cancelled_mid_plan.load(std::memory_order_relaxed);
  stats.degraded_served =
      impl_->degraded_served.load(std::memory_order_relaxed);
  stats.rejected_overload =
      impl_->rejected_overload.load(std::memory_order_relaxed);
  stats.breaker_rejections =
      impl_->breaker_rejections.load(std::memory_order_relaxed);
  stats.snapshot_saves = impl_->snapshot_saves.load(std::memory_order_relaxed);
  stats.snapshot_loads = impl_->snapshot_loads.load(std::memory_order_relaxed);
  stats.snapshot_load_failures =
      impl_->snapshot_load_failures.load(std::memory_order_relaxed);
  stats.overload_transitions = impl_->overload.transitions();
  stats.load_state = impl_->overload.state();
  stats.workers = impl_->worker_count;
  std::size_t queue_depth = 0;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    stats.queue_peak = impl_->queue_peak;
    queue_depth = impl_->queue.size();
  }
  stats.cache = cache_.stats();
  stats.ewma_plan_seconds =
      impl_->ewma_plan_seconds.load(std::memory_order_relaxed);
  stats.retry_after_hint_s = impl_->retry_after_hint(queue_depth);
  // Project the counters onto the stable wire taxonomy.  Expiry before and
  // after admission are one client-visible condition (DEADLINE_EXPIRED);
  // kDegraded is an annotation, not a rejection (those requests were
  // served), surfaced per-code so operators see degraded traffic next to
  // the hard rejections it prevented.
  auto& codes = stats.rejections_by_code;
  codes[status_index(StatusCode::kQueueFull)] = stats.rejected_queue_full;
  codes[status_index(StatusCode::kDeadlineExpired)] =
      stats.rejected_expired + stats.expired_in_queue;
  codes[status_index(StatusCode::kShed)] = stats.rejected_overload;
  codes[status_index(StatusCode::kBreakerOpen)] = stats.breaker_rejections;
  codes[status_index(StatusCode::kCancelled)] = stats.cancelled_mid_plan;
  codes[status_index(StatusCode::kPlannerFailed)] = stats.failed;
  codes[status_index(StatusCode::kDegraded)] = stats.degraded_served;
  return stats;
}

unsigned PlanningService::worker_count() const {
  return static_cast<unsigned>(impl_->worker_count);
}

LoadState PlanningService::load_state() const {
  return impl_->overload.state();
}

}  // namespace foscil::serve
