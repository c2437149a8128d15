// Canonical cache keys for the planning service.
//
// A plan is a pure function of (platform contents, T_max, planner kind,
// planner options): the schedulers are deterministic and carry no hidden
// state, so two requests whose canonical inputs hash equal may share one
// cached result bit-for-bit.  The key is a 128-bit content hash — two
// independent 64-bit streams (FNV-1a and a splitmix-style accumulator) over
// the canonicalized bit patterns of every input that can influence the
// planner:
//   * the thermal model: node/core/tier counts, die-node map, the full
//     conductance matrix, capacitances, and per-core power coefficients;
//   * the DVFS level set and the ambient temperature;
//   * T_max, the planner kind, and every AoOptions/PcoOptions field.
// The platform *name* is deliberately excluded (it is a label, not an
// input), and floating-point values are canonicalized (-0.0 folds onto
// +0.0; NaN violates a precondition) so equal-behaving requests cannot
// split across keys.  Collisions across *different* inputs are guarded
// against by storing the full key in each cache entry and comparing on hit.
#pragma once

#include <cstdint>
#include <memory>

#include "core/ao.hpp"
#include "core/pco.hpp"
#include "core/platform.hpp"

namespace foscil::serve {

/// Which planner a request runs (EXS is served through its own tooling;
/// the service covers the paper's oscillating schedulers).
enum class PlannerKind { kAo, kPco };

[[nodiscard]] const char* planner_name(PlannerKind kind);

/// 128-bit content hash; equality is exact.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Hash functor for unordered containers keyed by CacheKey.
struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& key) const noexcept {
    // hi and lo are independent streams; fold them so containers see
    // different bits than the cache's shard selector (which uses hi alone).
    std::uint64_t x = key.lo ^ (key.hi * 0x9E3779B97F4A7C15ull);
    x ^= x >> 32;
    return static_cast<std::size_t>(x);
  }
};

/// Incremental canonical hasher: two independent 64-bit streams fed with
/// 64-bit words.  Doubles are folded by bit pattern after canonicalizing
/// signed zero; NaN inputs violate the precondition (a NaN in any planner
/// input is already rejected upstream by the config loader / contracts).
class KeyHasher {
 public:
  KeyHasher& mix(std::uint64_t value) noexcept;
  KeyHasher& mix_double(double value);
  KeyHasher& mix(const linalg::Vector& values);
  KeyHasher& mix(const linalg::Matrix& values);

  [[nodiscard]] CacheKey key() const noexcept { return {hi_, lo_}; }

 private:
  std::uint64_t hi_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t lo_ = 0x6C62272E07BB0142ull;    // independent seed
};

/// Content fingerprint of the thermal model alone (RC network + power
/// coefficients).  O(n^2) in the node count: 2,600 doubles at 4x4, about
/// 28 µs, which is why the keys below go through the memo.
[[nodiscard]] CacheKey model_fingerprint(const thermal::ThermalModel& model);

/// model_fingerprint, computed once per model instance per process.  The
/// memo is keyed by the model's address behind one mutex, and each entry
/// holds a weak_ptr to its model: a new model that reuses a dead model's
/// address is hashed afresh, never served the dead model's digest.
[[nodiscard]] CacheKey memoized_model_fingerprint(
    const std::shared_ptr<const thermal::ThermalModel>& model);

/// Content fingerprint of a full platform: model + level set + ambient.
/// The model part comes from memoized_model_fingerprint.
[[nodiscard]] CacheKey platform_fingerprint(const core::Platform& platform);

/// Canonical key of one planning request.  `ao` is hashed for kAo requests;
/// `pco` (including its embedded AoOptions) for kPco requests.  The
/// Platform overload takes the model digest from
/// memoized_model_fingerprint; passing a precomputed `model_fp` skips even
/// the memo lookup.  `degraded` marks a plan computed under overload with
/// capped search options; it is part of the key schema so degraded and
/// full-quality plans can never share an entry.
[[nodiscard]] CacheKey plan_key(const core::Platform& platform,
                                double t_max_c, PlannerKind kind,
                                const core::AoOptions& ao,
                                const core::PcoOptions& pco = {},
                                bool degraded = false);
[[nodiscard]] CacheKey plan_key(const CacheKey& model_fp,
                                const core::Platform& platform,
                                double t_max_c, PlannerKind kind,
                                const core::AoOptions& ao,
                                const core::PcoOptions& pco = {},
                                bool degraded = false);

}  // namespace foscil::serve
