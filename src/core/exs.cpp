#include "core/exs.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/simd.hpp"
#include "util/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace foscil::core {

namespace {

/// Full recompute cadence of the incremental (modal) evaluation: at most
/// this many O(N) delta folds happen between O(N²) refreshes, bounding the
/// accumulated roundoff at a few thousand ulps — orders of magnitude below
/// the 1e-12 relative feasibility tolerance.
constexpr std::uint64_t kRefreshInterval = 4096;

/// Cancellation poll cadence: cheap enough to be invisible next to the
/// per-candidate arithmetic, frequent enough that a fired token stops every
/// chunk within a few milliseconds.
constexpr std::uint64_t kCancelCheckInterval = 4096;

/// Enumeration chunking: at least this many candidates per chunk (a chunk
/// walks them in tens of microseconds, longer than waking an executor
/// worker), and at most kMaxChunks chunks.  Any chunking yields the same
/// winner (see the exact-confirm note below).
constexpr std::uint64_t kChunkCandidates = 4096;
constexpr std::uint64_t kMaxChunks = 256;

struct Candidate {
  double throughput = -1.0;
  double peak = 0.0;
  std::uint64_t index = 0;
  std::vector<std::size_t> level_indices;

  [[nodiscard]] bool better_than(const Candidate& other) const {
    if (throughput != other.throughput) return throughput > other.throughput;
    if (peak != other.peak) return peak < other.peak;
    return index < other.index;
  }
};

}  // namespace

SchedulerResult run_exs(const Platform& platform, double t_max_c,
                        const ExsOptions& options) {
  const Stopwatch timer;
  const double rise_target = platform.rise_budget(t_max_c);
  const auto& model = *platform.model;
  const auto& levels = platform.levels.values();
  const std::size_t cores = platform.num_cores();
  const std::size_t num_levels = levels.size();

  std::uint64_t total = 1;
  for (std::size_t c = 0; c < cores; ++c) {
    FOSCIL_ASSERT(total < UINT64_MAX / num_levels);
    total *= num_levels;
  }
  if (options.max_candidates != 0 && total > options.max_candidates)
    throw ExsSpaceTooLarge(total, options.max_candidates);

  // Die-block of (G - beta E)^{-1}: candidate evaluation becomes
  // T_d = M_dd * Psi_d because package nodes carry no heat.
  const linalg::Matrix inv = linalg::inverse(model.system_matrix());
  linalg::Matrix m_dd(cores, cores);
  for (std::size_t r = 0; r < cores; ++r)
    for (std::size_t c = 0; c < cores; ++c)
      m_dd(r, c) =
          inv(model.network().die_node(r), model.network().die_node(c));

  // Explicit transposed copy of the die block: the odometer fold adds one
  // *column* of M_dd into temps per changed digit, and the transposed copy
  // turns that strided walk into a contiguous row the axpy kernel streams.
  // (An explicit copy, not a symmetry assumption — the LU-computed inverse
  // is only symmetric to roundoff.)
  const linalg::Matrix m_dd_t = m_dd.transposed();

  // Per-(core, level) heat lookup table (cores may be heterogeneous).
  linalg::Matrix psi_of(cores, num_levels);
  for (std::size_t c = 0; c < cores; ++c)
    for (std::size_t l = 0; l < num_levels; ++l)
      psi_of(c, l) = model.power().psi(c, levels[l]);

  const linalg::simd::Kernels& kern = linalg::simd::kernels();

  const bool modal = options.eval_engine == sim::EvalEngine::kModal;
  // Enumeration chunks are sized from the work alone; `threads` only
  // groups them for the reduction and goes through to the executor.
  const auto chunks = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(total / kChunkCandidates, 1, kMaxChunks));
  const std::uint64_t chunk_size = (total + chunks - 1) / chunks;

  const Candidate best = parallel_reduce(
      chunks, Candidate{},
      [&](std::size_t chunk, Candidate acc) {
        const std::uint64_t begin = chunk * chunk_size;
        const std::uint64_t end = std::min<std::uint64_t>(total, begin + chunk_size);
        if (begin >= end) return acc;

        // Decode the starting odometer (digit 0 = core 0, least significant).
        std::vector<std::size_t> digits(cores);
        std::uint64_t rest = begin;
        for (std::size_t c = 0; c < cores; ++c) {
          digits[c] = static_cast<std::size_t>(rest % num_levels);
          rest /= num_levels;
        }

        linalg::Vector psi(cores);
        linalg::Vector temps(cores);
        double speed_sum = 0.0;
        // Recompute temps and the speed sum from the digits alone — the
        // start-of-chunk state and the periodic drift reset of the
        // incremental path.
        const auto refresh = [&] {
          speed_sum = 0.0;
          for (std::size_t c = 0; c < cores; ++c) {
            psi[c] = psi_of(c, digits[c]);
            speed_sum += levels[digits[c]];
          }
          for (std::size_t r = 0; r < cores; ++r)
            temps[r] = kern.dot(m_dd.row_data(r), psi.data(), cores);
        };
        if (modal) refresh();
        std::uint64_t since_refresh = 0;
        const double threshold = rise_target * (1.0 + 1e-12);
        // Incremental temps drift by a few thousand ulps between refreshes;
        // any candidate within this slack of the budget is re-evaluated
        // exactly before the feasibility test, so the accepted set (and the
        // winner) is bit-identical to the reference engine — independent of
        // chunk layout and thread count.
        const double slack = rise_target * 1e-6;
        for (std::uint64_t idx = begin; idx < end; ++idx) {
          // Poll the token between candidates; a fired token abandons the
          // chunk (the partial accumulator is discarded by the throw after
          // the reduction).
          if (options.cancel != nullptr &&
              (idx - begin) % kCancelCheckInterval == 0 &&
              options.cancel->cancelled())
            return acc;
          if (modal) {
            if (temps.max() <= threshold + slack) {
              refresh();  // exact confirm; also resets the drift
              since_refresh = 0;
            }
          } else {
            refresh();
          }
          const double peak = temps.max();
          if (peak <= threshold) {
            const double throughput =
                speed_sum / static_cast<double>(cores);
            Candidate candidate{throughput, peak, idx, digits};
            if (candidate.better_than(acc)) acc = std::move(candidate);
          }
          // Advance the odometer; on the fast path each changed digit folds
          // its steady contribution column into temps (amortized one digit
          // per step, so O(N) instead of the N x N mat-vec).
          for (std::size_t c = 0; c < cores; ++c) {
            const std::size_t old = digits[c];
            const std::size_t fresh = old + 1 < num_levels ? old + 1 : 0;
            digits[c] = fresh;
            if (modal) {
              kern.axpy(cores, psi_of(c, fresh) - psi_of(c, old),
                        m_dd_t.row_data(c), temps.data());
              speed_sum += levels[fresh] - levels[old];
            }
            if (fresh != 0) break;  // no carry
          }
          // Incremental updates accumulate roundoff; a periodic full
          // recompute keeps the drift far below the feasibility tolerance.
          if (modal && ++since_refresh >= kRefreshInterval) {
            refresh();
            since_refresh = 0;
          }
        }
        return acc;
      },
      [](Candidate a, const Candidate& b) {
        return b.better_than(a) ? b : a;
      },
      options.threads);
  if (options.cancel != nullptr) options.cancel->throw_if_cancelled();

  SchedulerResult result;
  result.scheduler = "EXS";
  result.evaluations = total;
  result.seconds = timer.seconds();
  if (best.throughput < 0.0) {
    result.feasible = false;
    return result;
  }
  linalg::Vector voltages(cores);
  for (std::size_t c = 0; c < cores; ++c)
    voltages[c] = levels[best.level_indices[c]];
  result.feasible = true;
  result.schedule = sched::PeriodicSchedule::constant(voltages, 1.0);
  result.throughput = best.throughput;
  result.peak_rise = best.peak;
  result.peak_celsius = platform.to_celsius(best.peak);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace foscil::core
