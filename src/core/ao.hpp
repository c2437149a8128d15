// AO — aligned oscillation (Algorithm 2), the paper's main contribution.
//
// Pipeline:
//  1. Ideal constant voltage per core with every core's steady temperature
//     pinned at T_max (core/ideal.hpp).
//  2. Replace each unavailable ideal voltage by its two neighboring discrete
//     modes (Theorem 4) with work-preserving time ratios (eq. 11), low mode
//     first — a step-up schedule.
//  3. m-Oscillate all cores together (Definition 3, Theorem 5).  Every DVFS
//     transition stalls the core for tau; keeping throughput requires
//     extending the high interval by delta_i = (v_H + v_L) tau/(v_H - v_L),
//     which bounds m by M_i = floor(t_iL / (delta_i + tau)) per core and
//     M = min_i M_i chip-wide.  The best m is found by sequential search
//     over the peak temperature, which Theorem 1 makes cheap.
//  4. The resulting peak generally exceeds T_max (Theorem 3), so trade
//     throughput for temperature via the TPT index: repeatedly convert one
//     t_unit of high time to low time on the core that cools the hottest
//     core most per unit of throughput lost, until the peak obeys T_max.
#pragma once

#include <vector>

#include "core/platform.hpp"
#include "core/result.hpp"
#include "sim/modal.hpp"
#include "util/cancel.hpp"

namespace foscil::core {

/// Which core the TPT loop slows down (ablation knob; the paper uses the
/// best temperature-per-throughput tradeoff).
enum class TptPolicy {
  kBestTradeoff,  ///< Algorithm 2: max ΔT_hottest per unit of speed lost
  kHottestCore,   ///< naive: always slow the hottest core itself
};

/// Which two modes realize an unavailable ideal voltage (ablation knob; the
/// paper proves neighboring modes are optimal, Theorem 4).
enum class ModeChoice {
  kNeighboring,  ///< the two levels bracketing the ideal voltage
  kExtremes,     ///< the lowest and highest available levels
};

struct AoOptions {
  double base_period = 0.05;          ///< t_p, seconds
  double transition_overhead = 5e-6;  ///< tau, seconds (Sec. VI uses 5 us)
  double t_unit_fraction = 1e-3;      ///< t_unit as a fraction of t_p
  int max_m = 4096;                   ///< hard cap on the m search
  int m_search_patience = 8;          ///< stop after this many non-improving m
  TptPolicy tpt_policy = TptPolicy::kBestTradeoff;
  ModeChoice mode_choice = ModeChoice::kNeighboring;
  /// Guard band (K) subtracted from the rise budget before planning: the
  /// whole pipeline (ideal voltages, TPT loop, feasibility) targets
  /// T_max - t_max_margin.  The closed-loop guard (core/guard.hpp) derives
  /// this from a fault/uncertainty set; 0 reproduces the paper exactly.
  double t_max_margin = 0.0;
  /// Candidate-evaluation engine (sim/modal.hpp).  The modal diagonal
  /// recurrence is the default; the reference dense walk stays available for
  /// differential testing and as the independently-coded cross-check.
  /// Changes per-candidate arithmetic order, so results may differ from the
  /// reference engine in the last ulps — the serve cache hashes this knob.
  sim::EvalEngine eval_engine = sim::EvalEngine::kModal;
  /// Chunks the m-search window and the TPT candidate scan split into, run
  /// on the process-wide executor (util/executor.hpp); 1 = serial.
  /// 0 = the executor decides: chunks are sized from the scan's work
  /// (candidates × thermal nodes²) and only idle executor workers help, so
  /// a small scan or a busy process stays on the calling thread.  The
  /// value never changes the chosen plan: candidates are evaluated
  /// independently and reduced in deterministic index order, so any value
  /// yields bit-identical results.
  unsigned scan_threads = 0;
  /// Cooperative cancellation (util/cancel.hpp).  Polled *between*
  /// candidate evaluations in the m-search and TPT scans — never inside the
  /// numerics — so a fired token stops the run within one candidate and a
  /// run that finishes is bit-identical to one planned with no token.
  /// Raises CancelledError.  Not hashed by the serve cache key (like
  /// scan_threads, it cannot change a completed plan).
  const CancelToken* cancel = nullptr;
};

[[nodiscard]] SchedulerResult run_ao(const Platform& platform, double t_max_c,
                                     const AoOptions& options = {});

/// Per-core oscillation parameters shared by AO and PCO.
struct CoreOscillation {
  double v_low = 0.0;
  double v_high = 0.0;
  double ratio_high = 0.0;  ///< fraction of the period spent in v_high
  bool oscillating = false; ///< false => constant at v_low (== v_high)
  double phase_offset = 0.0;///< sub-period rotation (PCO only)

  [[nodiscard]] double mean_speed() const {
    return oscillating
               ? ratio_high * v_high + (1.0 - ratio_high) * v_low
               : v_low;
  }
  /// High-interval extension per transition pair that repays the stall work.
  [[nodiscard]] double delta(double tau) const {
    FOSCIL_EXPECTS(oscillating);
    return (v_high + v_low) * tau / (v_high - v_low);
  }
};

namespace detail {

/// Derive oscillation parameters from ideal voltages and a level set.
[[nodiscard]] std::vector<CoreOscillation> make_oscillations(
    const linalg::Vector& ideal_voltages, const power::VoltageLevels& levels,
    ModeChoice mode_choice = ModeChoice::kNeighboring);

/// Chip-wide upper bound M on the oscillation count (Sec. V); 1 when no
/// core oscillates.
[[nodiscard]] int oscillation_bound(const std::vector<CoreOscillation>& cores,
                                    double base_period, double tau);

/// Build the sub-period (t_p / m) schedule: per oscillating core, low for
/// r_L t_p/m - delta then high for r_H t_p/m + delta (phase-rotated when a
/// core carries an offset).  Cores whose high ratio reached 0 or 1 collapse
/// to constant segments.
[[nodiscard]] sched::PeriodicSchedule build_oscillating_schedule(
    const std::vector<CoreOscillation>& cores, double base_period, int m,
    double tau);

/// AO result plus the oscillation parameters it settled on; PCO continues
/// from this state.
struct AoInternal {
  SchedulerResult result;
  std::vector<CoreOscillation> cores;
};

[[nodiscard]] AoInternal run_ao_internal(const Platform& platform,
                                         double t_max_c,
                                         const AoOptions& options);

}  // namespace detail

}  // namespace foscil::core
