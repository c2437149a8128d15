#include "serve/cache_key.hpp"

#include <bit>
#include <cmath>
#include <mutex>
#include <unordered_map>

namespace foscil::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Key-schema version: bump whenever the set of hashed inputs or the
/// planner semantics change, so stale persisted keys can never alias.
/// v2: AoOptions grew eval_engine (hashed — it changes the plan's arithmetic
/// in the last ulps) and scan_threads (NOT hashed — candidate scans reduce
/// in deterministic index order, so any thread count yields a bit-identical
/// plan and must hit the same cache entry).
/// v3: keys carry a `degraded` bit.  Plans computed under overload with
/// capped search options live under their own keys, so a degraded plan can
/// never replace, alias, or be served in place of a full-quality entry.
/// AoOptions also grew `cancel` (NOT hashed — like scan_threads, a token
/// can only stop a run, never change a completed plan).  Snapshot format
/// versioning is coupled to this constant: serve/snapshot.hpp must bump
/// kSnapshotVersion whenever this changes.
constexpr std::uint64_t kSchemaVersion = 3;

[[nodiscard]] std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* planner_name(PlannerKind kind) {
  return kind == PlannerKind::kAo ? "AO" : "PCO";
}

KeyHasher& KeyHasher::mix(std::uint64_t value) noexcept {
  // Stream 1: FNV-1a over the 8 bytes, little-endian.
  for (int byte = 0; byte < 8; ++byte) {
    hi_ ^= (value >> (8 * byte)) & 0xFFull;
    hi_ *= kFnvPrime;
  }
  // Stream 2: splitmix accumulation over whole words.
  lo_ = splitmix(lo_ ^ value);
  return *this;
}

KeyHasher& KeyHasher::mix_double(double value) {
  FOSCIL_EXPECTS(!std::isnan(value));
  if (value == 0.0) value = 0.0;  // fold -0.0 onto +0.0
  return mix(std::bit_cast<std::uint64_t>(value));
}

KeyHasher& KeyHasher::mix(const linalg::Vector& values) {
  mix(static_cast<std::uint64_t>(values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) mix_double(values[i]);
  return *this;
}

KeyHasher& KeyHasher::mix(const linalg::Matrix& values) {
  mix(static_cast<std::uint64_t>(values.rows()));
  mix(static_cast<std::uint64_t>(values.cols()));
  for (std::size_t r = 0; r < values.rows(); ++r) {
    const double* row = values.row_data(r);
    for (std::size_t c = 0; c < values.cols(); ++c) mix_double(row[c]);
  }
  return *this;
}

CacheKey model_fingerprint(const thermal::ThermalModel& model) {
  KeyHasher hasher;
  const thermal::RcNetwork& network = model.network();
  hasher.mix(static_cast<std::uint64_t>(network.num_nodes()));
  hasher.mix(static_cast<std::uint64_t>(network.num_cores()));
  hasher.mix(static_cast<std::uint64_t>(network.num_tiers()));
  hasher.mix(static_cast<std::uint64_t>(network.sites_per_tier()));
  for (std::size_t core = 0; core < network.num_cores(); ++core)
    hasher.mix(static_cast<std::uint64_t>(network.die_node(core)));
  hasher.mix(network.conductance());
  hasher.mix(network.capacitance());
  // Per-core coefficients cover both the homogeneous and heterogeneous
  // shapes: a heterogeneous model whose entries all agree plans identically
  // to the uniform model, and hashes identically too.
  const power::PowerModel& power = model.power();
  for (std::size_t core = 0; core < model.num_cores(); ++core) {
    const power::PowerCoefficients& c = power.coefficients(core);
    hasher.mix_double(c.alpha);
    hasher.mix_double(c.beta);
    hasher.mix_double(c.gamma);
  }
  return hasher.key();
}

namespace {

void mix_platform_tail(KeyHasher& hasher, const core::Platform& platform) {
  hasher.mix_double(platform.t_ambient_c);
  const std::vector<double>& levels = platform.levels.values();
  hasher.mix(static_cast<std::uint64_t>(levels.size()));
  for (double v : levels) hasher.mix_double(v);
}

void mix_ao_options(KeyHasher& hasher, const core::AoOptions& ao) {
  hasher.mix_double(ao.base_period);
  hasher.mix_double(ao.transition_overhead);
  hasher.mix_double(ao.t_unit_fraction);
  hasher.mix(static_cast<std::uint64_t>(ao.max_m));
  hasher.mix(static_cast<std::uint64_t>(ao.m_search_patience));
  hasher.mix(static_cast<std::uint64_t>(ao.tpt_policy));
  hasher.mix(static_cast<std::uint64_t>(ao.mode_choice));
  hasher.mix_double(ao.t_max_margin);
  hasher.mix(static_cast<std::uint64_t>(ao.eval_engine));
  // ao.scan_threads deliberately unhashed; see kSchemaVersion.
}

}  // namespace

CacheKey memoized_model_fingerprint(
    const std::shared_ptr<const thermal::ThermalModel>& model) {
  FOSCIL_EXPECTS(model != nullptr);
  struct Memo {
    std::mutex mutex;
    std::unordered_map<const thermal::ThermalModel*,
                       std::pair<std::weak_ptr<const thermal::ThermalModel>,
                                 CacheKey>>
        digests;  // guarded by mutex
  };
  // Leaked on purpose, like the executor: callers on executor threads may
  // still key requests while static destructors run.
  static Memo* const memo = new Memo();
  const std::lock_guard<std::mutex> lock(memo->mutex);
  const auto it = memo->digests.find(model.get());
  if (it != memo->digests.end() && !it->second.first.expired())
    return it->second.second;
  const CacheKey fp = model_fingerprint(*model);
  // Bound the memo: drop dead entries once it grows past a few hundred
  // models (a serving process typically hosts a handful).
  if (memo->digests.size() > 512) {
    for (auto entry = memo->digests.begin(); entry != memo->digests.end();) {
      entry = entry->second.first.expired() ? memo->digests.erase(entry)
                                            : std::next(entry);
    }
  }
  memo->digests[model.get()] = {model, fp};
  return fp;
}

CacheKey platform_fingerprint(const core::Platform& platform) {
  const CacheKey model_fp = memoized_model_fingerprint(platform.model);
  KeyHasher hasher;
  hasher.mix(model_fp.hi).mix(model_fp.lo);
  mix_platform_tail(hasher, platform);
  return hasher.key();
}

CacheKey plan_key(const CacheKey& model_fp, const core::Platform& platform,
                  double t_max_c, PlannerKind kind,
                  const core::AoOptions& ao, const core::PcoOptions& pco,
                  bool degraded) {
  KeyHasher hasher;
  hasher.mix(kSchemaVersion);
  hasher.mix(model_fp.hi).mix(model_fp.lo);
  mix_platform_tail(hasher, platform);
  hasher.mix_double(t_max_c);
  hasher.mix(static_cast<std::uint64_t>(kind));
  hasher.mix(degraded ? 1u : 0u);
  if (kind == PlannerKind::kAo) {
    mix_ao_options(hasher, ao);
  } else {
    mix_ao_options(hasher, pco.ao);
    hasher.mix(static_cast<std::uint64_t>(pco.phase_grid));
    hasher.mix(static_cast<std::uint64_t>(pco.phase_rounds));
    hasher.mix(static_cast<std::uint64_t>(pco.peak_samples));
    hasher.mix(static_cast<std::uint64_t>(pco.final_peak_samples));
  }
  return hasher.key();
}

CacheKey plan_key(const core::Platform& platform, double t_max_c,
                  PlannerKind kind, const core::AoOptions& ao,
                  const core::PcoOptions& pco, bool degraded) {
  return plan_key(memoized_model_fingerprint(platform.model), platform,
                  t_max_c, kind, ao, pco, degraded);
}

}  // namespace foscil::serve
