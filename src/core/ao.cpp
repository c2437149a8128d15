#include "core/ao.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/ideal.hpp"
#include "sched/transforms.hpp"
#include "sim/peak.hpp"
#include "util/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace foscil::core {

namespace detail {

std::vector<CoreOscillation> make_oscillations(
    const linalg::Vector& ideal_voltages,
    const power::VoltageLevels& levels, ModeChoice mode_choice) {
  std::vector<CoreOscillation> cores(ideal_voltages.size());
  for (std::size_t i = 0; i < ideal_voltages.size(); ++i) {
    // Ideal voltages below the lowest level (possible on thermally starved
    // cores, e.g. upper tiers of a 3D stack) oscillate between the
    // power-gated mode (v = f = 0, Sec. II-A) and the lowest level.
    if (ideal_voltages[i] < levels.lowest() - 1e-12) {
      CoreOscillation& osc = cores[i];
      osc.v_low = 0.0;
      osc.v_high = levels.lowest();
      if (ideal_voltages[i] <= 0.0) {
        osc.oscillating = false;  // fully off
        continue;
      }
      osc.oscillating = true;
      osc.ratio_high = ideal_voltages[i] / levels.lowest();
      continue;
    }
    power::NeighboringModes modes = levels.neighbors(ideal_voltages[i]);
    if (mode_choice == ModeChoice::kExtremes && !modes.exact()) {
      // Ablation of Theorem 4: realize the same mean speed with the widest
      // available mode pair instead of the neighboring one.
      modes.low = levels.lowest();
      modes.high = levels.highest();
    }
    CoreOscillation& osc = cores[i];
    osc.v_low = modes.low;
    osc.v_high = modes.high;
    if (modes.exact()) {
      osc.oscillating = false;
      osc.ratio_high = 0.0;
      continue;
    }
    osc.oscillating = true;
    // eq. (11): work-preserving split between the two neighboring modes.
    osc.ratio_high =
        (ideal_voltages[i] - modes.low) / (modes.high - modes.low);
    FOSCIL_ASSERT(osc.ratio_high > 0.0 && osc.ratio_high < 1.0);
  }
  return cores;
}

int oscillation_bound(const std::vector<CoreOscillation>& cores,
                      double base_period, double tau) {
  FOSCIL_EXPECTS(base_period > 0.0);
  FOSCIL_EXPECTS(tau >= 0.0);
  int bound = std::numeric_limits<int>::max();
  bool any = false;
  for (const auto& core : cores) {
    if (!core.oscillating) continue;
    any = true;
    if (tau == 0.0) continue;  // no stall => no per-core bound
    const double t_low = (1.0 - core.ratio_high) * base_period;
    const double per_m_cost = core.delta(tau) + tau;
    const int m_i = static_cast<int>(std::floor(t_low / per_m_cost));
    bound = std::min(bound, std::max(1, m_i));
  }
  if (!any) return 1;
  return bound;  // INT_MAX when tau == 0 (caller caps with max_m)
}

sched::PeriodicSchedule build_oscillating_schedule(
    const std::vector<CoreOscillation>& cores, double base_period, int m,
    double tau) {
  FOSCIL_EXPECTS(m >= 1);
  const double sub_period = base_period / static_cast<double>(m);
  sched::PeriodicSchedule schedule(cores.size(), sub_period);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const CoreOscillation& osc = cores[i];
    if (!osc.oscillating || osc.ratio_high <= 0.0 || osc.ratio_high >= 1.0) {
      const double level = !osc.oscillating
                               ? osc.v_low
                               : (osc.ratio_high <= 0.0 ? osc.v_low
                                                        : osc.v_high);
      schedule.set_core_segments(i, {sched::Segment{sub_period, level}});
      continue;
    }
    const double delta = tau > 0.0 ? osc.delta(tau) : 0.0;
    const double low = (1.0 - osc.ratio_high) * sub_period - delta;
    const double high = osc.ratio_high * sub_period + delta;
    FOSCIL_ASSERT(low > 0.0);
    std::vector<sched::Segment> segments{
        sched::Segment{low, osc.v_low}, sched::Segment{high, osc.v_high}};
    // Rotate the segment list in place rather than phase_shift-ing the whole
    // schedule, which copied every core's segments once per shifted core.
    if (osc.phase_offset != 0.0)
      segments = sched::rotate_segments(segments, sub_period, osc.phase_offset);
    schedule.set_core_segments(i, std::move(segments));
  }
  return schedule;
}

namespace {

/// Mean chip speed delivered by the oscillation parameters (stall work is
/// repaid by the delta extension, so this is the delivered throughput).
double oscillation_throughput(const std::vector<CoreOscillation>& cores) {
  double total = 0.0;
  for (const auto& core : cores) total += core.mean_speed();
  return total / static_cast<double>(cores.size());
}

/// Work (candidates × thermal nodes²) one automatic scan chunk carries: a
/// tenth of a millisecond or more of modal evaluation.  Concurrent chunks
/// share the analyzer's memo and its mutex, so small chunks lose more to
/// that contention than a helper gains.  On a 4-vCPU VM this grain keeps
/// 4x4 and 5x5 scans serial and splits 6x6 TPT scans three ways, 10-14%
/// faster than serial.
constexpr std::size_t kScanChunkWork = 131072;

/// Partition [0, count) into contiguous chunks and run `body(begin, end)`
/// over them on the executor.  Each chunk goes to the analyzer as one
/// batch, so SIMD lanes (batched back-transform, amortized factor caches)
/// compose with the fan-out.  `scan_threads` fixes the chunk count; 0 sizes
/// chunks from the work, so a scan too small to repay a wake-up stays on
/// the caller.  Batching is bit-identical to per-candidate evaluation and
/// each index is computed exactly once, so results are independent of the
/// chunking and of how many workers helped.
template <typename Body>
void parallel_chunks(std::size_t count, unsigned scan_threads,
                     std::size_t num_nodes, const Body& body) {
  const std::size_t chunks =
      scan_threads != 0
          ? scan_threads
          : std::max<std::size_t>(
                1, count * num_nodes * num_nodes / kScanChunkWork);
  parallel_for_ranges(count, body,
                      static_cast<unsigned>(std::min(chunks, count)));
}

}  // namespace

AoInternal run_ao_internal(const Platform& platform, double t_max_c,
                           const AoOptions& options) {
  FOSCIL_EXPECTS(options.base_period > 0.0);
  FOSCIL_EXPECTS(options.transition_overhead >= 0.0);
  FOSCIL_EXPECTS(options.t_unit_fraction > 0.0 &&
                 options.t_unit_fraction < 1.0);
  FOSCIL_EXPECTS(options.t_max_margin >= 0.0);
  const Stopwatch timer;
  const double rise_target =
      platform.rise_budget(t_max_c) - options.t_max_margin;
  FOSCIL_EXPECTS(rise_target > 0.0);
  const auto& model = *platform.model;
  const sim::SteadyStateAnalyzer analyzer(platform.model,
                                          options.eval_engine);
  const std::size_t num_nodes = model.num_nodes();
  const double tau = options.transition_overhead;
  std::size_t evaluations = 0;

  // Steps 1-2: ideal voltages -> neighboring-mode oscillation parameters.
  const IdealVoltages ideal = ideal_constant_voltages(
      model, rise_target, platform.levels.highest());
  std::vector<CoreOscillation> cores = detail::make_oscillations(
      ideal.voltages, platform.levels, options.mode_choice);

  // Step 3: search m in [1, M] for the lowest peak (Theorem 5 modulated by
  // the per-transition extension cost).
  const int bound = std::min(
      options.max_m,
      detail::oscillation_bound(cores, options.base_period, tau));
  int best_m = 1;
  double best_peak = std::numeric_limits<double>::infinity();
  {
    // Evaluate the m window in fixed-size blocks so candidates run
    // concurrently while reproducing the sequential early-stop rule exactly:
    // block size depends only on the patience knob (never on the thread
    // count), each candidate is independent, and the patience fold walks the
    // block in ascending m — so the chosen m is identical for any
    // scan_threads.  A stop mid-block wastes at most patience-1 evaluations.
    const int block = std::max(1, options.m_search_patience);
    int stale = 0;
    int next = 1;
    bool stop = false;
    while (!stop && next <= bound) {
      const int count = std::min(block, bound - next + 1);
      std::vector<double> peaks(static_cast<std::size_t>(count));
      parallel_chunks(
          static_cast<std::size_t>(count), options.scan_threads, num_nodes,
          [&](std::size_t begin, std::size_t end) {
            // Cancellation check point: between chunks, never inside the
            // evaluation.  A fired token skips the remaining chunks (the
            // results are discarded by the throw below).
            if (options.cancel != nullptr && options.cancel->cancelled())
              return;
            std::vector<sched::PeriodicSchedule> schedules;
            schedules.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i)
              schedules.push_back(detail::build_oscillating_schedule(
                  cores, options.base_period, next + static_cast<int>(i),
                  tau));
            const std::vector<sim::PeakInfo> batch =
                sim::batch_step_up_peaks(analyzer, schedules);
            for (std::size_t i = begin; i < end; ++i)
              peaks[i] = batch[i - begin].rise;
          });
      if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
      evaluations += static_cast<std::size_t>(count);
      for (int i = 0; i < count && !stop; ++i) {
        if (peaks[static_cast<std::size_t>(i)] < best_peak - 1e-12) {
          best_peak = peaks[static_cast<std::size_t>(i)];
          best_m = next + i;
          stale = 0;
        } else if (++stale >= options.m_search_patience) {
          stop = true;
        }
      }
      next += count;
    }
  }

  // Step 4: TPT-guided ratio reduction until the peak obeys the budget.
  const double u = options.t_unit_fraction;  // ratio step (t_unit / t_p)
  const double tolerance = rise_target * 1e-9;
  auto rises_of = [&](const std::vector<CoreOscillation>& state) {
    const auto schedule = detail::build_oscillating_schedule(
        state, options.base_period, best_m, tau);
    return analyzer.stable_core_rises(schedule);
  };

  linalg::Vector core_rises = rises_of(cores);
  ++evaluations;
  while (core_rises.max() > rise_target + tolerance) {
    if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
    const std::size_t hottest = core_rises.argmax();
    const bool hottest_adjustable =
        cores[hottest].oscillating && cores[hottest].ratio_high > 0.0;
    // Collect the adjustable candidates first so their evaluations — each
    // an independent steady-state solve against the immutable model — can
    // fan out across scan threads.
    std::vector<std::size_t> scan;
    for (std::size_t j = 0; j < cores.size(); ++j) {
      if (!cores[j].oscillating || cores[j].ratio_high <= 0.0) continue;
      // Ablation: the naive policy only ever slows the hottest core down
      // (falling back to the full scan when that core has no knob left).
      if (options.tpt_policy == TptPolicy::kHottestCore &&
          hottest_adjustable && j != hottest)
        continue;
      scan.push_back(j);
    }
    if (scan.empty()) break;  // no adjustable core remains
    std::vector<linalg::Vector> scan_rises(scan.size());
    parallel_chunks(
        scan.size(), options.scan_threads, num_nodes,
        [&](std::size_t begin, std::size_t end) {
          if (options.cancel != nullptr && options.cancel->cancelled())
            return;  // between chunks; discarded by the throw below
          std::vector<sched::PeriodicSchedule> schedules;
          schedules.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            std::vector<CoreOscillation> candidate = cores;
            candidate[scan[i]].ratio_high =
                std::max(0.0, candidate[scan[i]].ratio_high - u);
            schedules.push_back(detail::build_oscillating_schedule(
                candidate, options.base_period, best_m, tau));
          }
          std::vector<linalg::Vector> batch =
              analyzer.batch_stable_core_rises(schedules.data(),
                                               schedules.size());
          for (std::size_t i = begin; i < end; ++i)
            scan_rises[i] = std::move(batch[i - begin]);
        });
    if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
    evaluations += scan.size();
    // Deterministic selection: fold in ascending-core order with the same
    // strict `>` the sequential scan used, so the winner (and therefore the
    // whole trajectory) is independent of the thread count.
    double best_tpt = -1.0;
    std::size_t best_i = scan.size();
    for (std::size_t i = 0; i < scan.size(); ++i) {
      const std::size_t j = scan[i];
      const double new_ratio = std::max(0.0, cores[j].ratio_high - u);
      const double speed_loss =
          (cores[j].v_high - cores[j].v_low) *
          (cores[j].ratio_high - new_ratio);
      if (speed_loss <= 0.0) continue;
      const double delta_t = core_rises[hottest] - scan_rises[i][hottest];
      const double tpt = delta_t / speed_loss;
      if (tpt > best_tpt) {
        best_tpt = tpt;
        best_i = i;
      }
    }
    if (best_i == scan.size()) break;  // every candidate lost zero speed
    const std::size_t best_core = scan[best_i];
    cores[best_core].ratio_high =
        std::max(0.0, cores[best_core].ratio_high - u);
    core_rises = std::move(scan_rises[best_i]);
  }

  const auto final_schedule = detail::build_oscillating_schedule(
      cores, options.base_period, best_m, tau);
  const sim::PeakInfo peak = sim::step_up_peak(analyzer, final_schedule);

  AoInternal internal;
  internal.cores = cores;
  SchedulerResult& result = internal.result;
  result.scheduler = "AO";
  result.feasible = peak.rise <= rise_target * (1.0 + 1e-6);
  result.schedule = final_schedule;
  result.throughput = detail::oscillation_throughput(cores);
  result.peak_rise = peak.rise;
  result.peak_celsius = platform.to_celsius(peak.rise);
  result.m = best_m;
  result.evaluations = evaluations;
  result.seconds = timer.seconds();
  return internal;
}

}  // namespace detail

SchedulerResult run_ao(const Platform& platform, double t_max_c,
                       const AoOptions& options) {
  return detail::run_ao_internal(platform, t_max_c, options).result;
}

}  // namespace foscil::core
