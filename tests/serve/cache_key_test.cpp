// Canonicalization properties of the plan cache key (serve/cache_key.hpp):
// content-equal platforms collide, any planning-relevant difference
// separates, and labels/wall-clock never leak into the key.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <new>

#include "serve/cache_key.hpp"
#include "../test_support.hpp"

namespace foscil::serve {
namespace {

core::Platform platform_a() { return testing::grid_platform(2, 2); }

TEST(CacheKey, ContentEqualPlatformsProduceEqualKeys) {
  // Two independently constructed platforms with identical contents.
  const core::Platform p1 = platform_a();
  const core::Platform p2 = platform_a();
  ASSERT_NE(p1.model.get(), p2.model.get());
  EXPECT_EQ(platform_fingerprint(p1), platform_fingerprint(p2));
  EXPECT_EQ(plan_key(p1, 55.0, PlannerKind::kAo, {}),
            plan_key(p2, 55.0, PlannerKind::kAo, {}));
}

TEST(CacheKey, PlatformNameIsNotPartOfTheKey) {
  core::Platform p1 = platform_a();
  core::Platform p2 = platform_a();
  p1.name = "chip-under-test";
  p2.name = "a completely different label";
  EXPECT_EQ(platform_fingerprint(p1), platform_fingerprint(p2));
}

TEST(CacheKey, EveryPlanningInputSeparatesKeys) {
  const core::Platform base = platform_a();
  const CacheKey reference = plan_key(base, 55.0, PlannerKind::kAo, {});

  EXPECT_NE(plan_key(base, 55.0001, PlannerKind::kAo, {}), reference);
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kPco, {}), reference);

  core::AoOptions ao;
  ao.base_period = 0.051;
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kAo, ao), reference);
  ao = {};
  ao.tpt_policy = core::TptPolicy::kHottestCore;
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kAo, ao), reference);
  ao = {};
  ao.t_max_margin = 0.5;
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kAo, ao), reference);

  // Different chip geometry.
  EXPECT_NE(plan_key(testing::grid_platform(2, 3), 55.0, PlannerKind::kAo,
                     {}),
            reference);

  // Different mode set on the same chip.
  core::Platform levels = base;
  levels.levels = power::VoltageLevels::paper_table4(3);
  EXPECT_NE(plan_key(levels, 55.0, PlannerKind::kAo, {}), reference);

  // Different ambient.
  core::Platform ambient = base;
  ambient.t_ambient_c = 30.0;
  EXPECT_NE(plan_key(ambient, 55.0, PlannerKind::kAo, {}), reference);

  // Different evaluation engine: last-ulp arithmetic differences make the
  // plans distinct artifacts, so the engine is part of the key...
  ao = {};
  ao.eval_engine = sim::EvalEngine::kReference;
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kAo, ao), reference);
  // ...while the scan thread count is deliberately NOT: any value yields a
  // bit-identical plan, so threading must share cache entries.
  ao = {};
  ao.scan_threads = 7;
  EXPECT_EQ(plan_key(base, 55.0, PlannerKind::kAo, ao), reference);
}

TEST(CacheKey, HeterogeneousPowerCoefficientsSeparateKeys) {
  const core::Platform homogeneous = testing::grid_platform(1, 2);
  std::vector<power::PowerCoefficients> per_core(2);
  per_core[1].alpha += 0.25;
  const core::Platform heterogeneous = core::make_grid_platform(
      1, 2, power::VoltageLevels({0.6, 1.3}), {},
      power::PowerModel(per_core));
  EXPECT_NE(platform_fingerprint(homogeneous),
            platform_fingerprint(heterogeneous));
}

TEST(CacheKey, PcoKnobsSeparateKeysOnlyForPco) {
  const core::Platform base = platform_a();
  core::PcoOptions pco;
  const CacheKey ao_ref = plan_key(base, 55.0, PlannerKind::kAo, {}, pco);
  const CacheKey pco_ref = plan_key(base, 55.0, PlannerKind::kPco, {}, pco);
  pco.phase_grid = 32;
  // AO requests ignore PCO knobs entirely...
  EXPECT_EQ(plan_key(base, 55.0, PlannerKind::kAo, {}, pco), ao_ref);
  // ...while PCO requests key on them.
  EXPECT_NE(plan_key(base, 55.0, PlannerKind::kPco, {}, pco), pco_ref);
}

TEST(CacheKey, SignedZeroCanonicalizes) {
  KeyHasher plus, minus;
  plus.mix_double(0.0);
  minus.mix_double(-0.0);
  EXPECT_EQ(plus.key(), minus.key());
}

TEST(CacheKey, NanInputViolatesContract) {
  KeyHasher hasher;
  EXPECT_THROW(hasher.mix_double(std::nan("")), ContractViolation);
}

TEST(CacheKey, ModelFingerprintIsStableAcrossCalls) {
  const core::Platform p = platform_a();
  EXPECT_EQ(model_fingerprint(*p.model), model_fingerprint(*p.model));
}

TEST(CacheKey, MemoizedDigestMatchesTheFullHash) {
  const core::Platform p = testing::grid_platform(3, 3);
  EXPECT_EQ(memoized_model_fingerprint(p.model), model_fingerprint(*p.model));
  EXPECT_EQ(memoized_model_fingerprint(p.model), model_fingerprint(*p.model));
  EXPECT_EQ(plan_key(p, 55.0, PlannerKind::kAo, {}),
            plan_key(model_fingerprint(*p.model), p, 55.0, PlannerKind::kAo,
                     {}));
}

TEST(CacheKey, ContentEqualModelsAtDifferentAddressesShareAKey) {
  const core::Platform p1 = platform_a();
  const core::Platform p2 = platform_a();
  ASSERT_NE(p1.model.get(), p2.model.get());
  // Each model gets its own memo entry; the digests are still equal.
  EXPECT_EQ(memoized_model_fingerprint(p1.model),
            memoized_model_fingerprint(p2.model));
  EXPECT_EQ(plan_key(p1, 55.0, PlannerKind::kAo, {}),
            plan_key(p2, 55.0, PlannerKind::kAo, {}));
  EXPECT_EQ(platform_fingerprint(p1), platform_fingerprint(p2));
}

TEST(CacheKey, NewModelAtADeadModelsAddressGetsItsOwnDigest) {
  // Build two different models in the same storage, one after the other,
  // so the second reuses the first one's address exactly.
  alignas(thermal::ThermalModel) unsigned char
      storage[sizeof(thermal::ThermalModel)];
  const auto in_storage = [&](const thermal::ThermalModel& contents) {
    const auto* model = new (storage) thermal::ThermalModel(
        contents.network(), contents.power());
    return std::shared_ptr<const thermal::ThermalModel>(
        model, [](const thermal::ThermalModel* dead) {
          dead->~ThermalModel();
        });
  };
  const core::Platform small = platform_a();
  const core::Platform large = testing::grid_platform(2, 3);
  ASSERT_NE(model_fingerprint(*small.model), model_fingerprint(*large.model));

  CacheKey first{};
  {
    const auto model = in_storage(*small.model);
    first = memoized_model_fingerprint(model);
    EXPECT_EQ(first, model_fingerprint(*small.model));
  }
  const auto reused = in_storage(*large.model);
  EXPECT_EQ(static_cast<const void*>(reused.get()),
            static_cast<const void*>(storage));
  const CacheKey second = memoized_model_fingerprint(reused);
  EXPECT_NE(second, first);
  EXPECT_EQ(second, model_fingerprint(*large.model));
}

}  // namespace
}  // namespace foscil::serve
