// Tests for the benchmark cost model: the mock group's consistency, count
// equivalence between mock and real protocol runs, calibration sanity and
// model scaling laws.
#include <gtest/gtest.h>

#include "benchcore/model.h"
#include "group/mock_group.h"

namespace ppgr::benchcore {
namespace {

using group::GroupId;
using group::MockGroup;
using mpz::ChaChaRng;
using mpz::Nat;

TEST(MockGroup, IsAConsistentGroup) {
  const MockGroup g{"mock", 32, 61};
  ChaChaRng rng{500};
  const auto x = g.random_nonzero_scalar(rng);
  const auto y = g.random_nonzero_scalar(rng);
  // Homomorphism and inverse laws (the properties the protocol relies on).
  const auto gx = g.exp_g(x), gy = g.exp_g(y);
  EXPECT_TRUE(g.eq(g.mul(gx, gy), g.exp_g(Nat::add(x, y) % g.order())));
  EXPECT_TRUE(g.is_identity(g.mul(gx, g.inv(gx))));
  EXPECT_TRUE(g.eq(g.exp(gx, y), g.exp_g(Nat::mul(x, y) % g.order())));
  // Declared order is a multiple of every element's order.
  EXPECT_TRUE(g.is_identity(g.exp(gx, g.order())));
}

TEST(MockGroup, ElGamalAndProofsWorkOverIt) {
  // The counted framework run exercises ElGamal + Schnorr over the mock
  // group; both must be *correct* there (only security is absent).
  const MockGroup g{"mock", 32, 61};
  ChaChaRng rng{501};
  const auto kp = crypto::keygen(g, rng);
  const auto ct = crypto::encrypt_exp(g, kp.y, Nat{}, rng);
  EXPECT_TRUE(crypto::decrypts_to_zero(g, kp.x, ct));
  const auto nz = crypto::encrypt_exp(g, kp.y, Nat{3}, rng);
  EXPECT_FALSE(crypto::decrypts_to_zero(g, kp.x, nz));
  const auto proof = crypto::schnorr_prove(g, kp.x, 4, rng);
  EXPECT_TRUE(crypto::schnorr_verify(g, kp.y, proof));
}

TEST(MockGroup, SerializationCarriesModeledSize) {
  const MockGroup g{"mock", 128, 1024};
  EXPECT_EQ(g.element_bytes(), 128u);
  EXPECT_EQ(g.field_bits(), 1024u);
  const auto bytes = g.serialize(g.generator());
  EXPECT_EQ(bytes.size(), 128u);
  EXPECT_TRUE(g.eq(g.deserialize(bytes), g.generator()));
}

TEST(Model, MockCountsEqualRealGroupCounts) {
  // The foundation of the whole cost model: a protocol run metered over the
  // mock group charges exactly the same operations as one over a real group
  // (the operation sequence is data-independent, and both take the one
  // phase-2 code path).
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  const std::size_t n = 3, k = 1;
  const auto real = group::make_group(GroupId::kDlTest256);

  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = real.get();
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  const Instance inst = random_instance(spec, n, 99);
  ChaChaRng rng{100};
  const auto run = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
  const OpCounts real_counts = group_op_counts(run.metrics->totals());

  const HeCounts mock_counts = count_he_framework(
      spec, n, k, real->element_bytes(), real->field_bits(), 99);
  const OpCounts& mock = mock_counts.per_participant;
  EXPECT_EQ(mock.muls, real_counts.muls / n);
  EXPECT_EQ(mock.exps, real_counts.exps / n);
  EXPECT_EQ(mock.fixed_base_exps, real_counts.fixed_base_exps / n);
  EXPECT_EQ(mock.invs, real_counts.invs / n);
  EXPECT_EQ(mock.gexps, real_counts.gexps / n);
  EXPECT_EQ(mock.multi_exps, real_counts.multi_exps / n);
  EXPECT_GT(mock.multi_exps, 0u);
  EXPECT_GT(mock.fixed_base_exps, 0u);
}

TEST(Model, CalibrationProducesPositiveCosts) {
  const auto g = group::make_group(GroupId::kEcP192);
  ChaChaRng rng{502};
  const GroupCosts costs = calibrate_group(*g, rng);
  EXPECT_GT(costs.mul_s, 0.0);
  EXPECT_GT(costs.exp_s, costs.mul_s);  // an exp is many muls
  EXPECT_GT(costs.multi_exp2_s, costs.mul_s);
  EXPECT_GT(costs.inv_s, 0.0);
  EXPECT_GT(costs.serialize_s, 0.0);
}

TEST(Model, SsCalibrationProducesPositiveCosts) {
  const mpz::FpCtx& f = core::ss_field_for_beta_bits(20);
  ChaChaRng rng{503};
  const SsCosts costs = calibrate_ss(f, 5, 2, rng);
  EXPECT_GT(costs.mult_party_s, 0.0);
  EXPECT_GT(costs.open_party_s, 0.0);
  EXPECT_GT(costs.deal_party_s, 0.0);
  EXPECT_GT(costs.sqrt_s, 0.0);
}

TEST(Model, PricingIsLinearInCounts) {
  GroupCosts costs{.mul_s = 1e-6, .exp_s = 1e-3, .gexp_s = 2e-4,
                   .multi_exp2_s = 1.5e-3, .inv_s = 1e-3,
                   .serialize_s = 1e-7};
  OpCounts counts;
  counts.muls = 1000;
  counts.exps = 10;
  counts.fixed_base_exps = 4;  // of the 10: priced as fixed-base exps
  counts.multi_exps = 3;
  const double t1 = price_group_ops(counts, costs);
  counts.muls *= 2;
  counts.exps *= 2;
  counts.fixed_base_exps *= 2;
  counts.multi_exps *= 2;
  EXPECT_DOUBLE_EQ(price_group_ops(counts, costs), 2 * t1);
  EXPECT_NEAR(t1, 1000 * 1e-6 + 6 * 1e-3 + 4 * 2e-4 + 3 * 1.5e-3, 1e-12);
}

TEST(Model, HeCountsScaleQuadraticallyInN) {
  // Sec. VI-B: per-participant exponentiations are O(l n^2)/n... the total
  // protocol is O(l n^3) exps across parties, i.e. per participant O(l n^2).
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  const auto c5 = count_he_framework(spec, 5, 1, 32, 256, 1);
  const auto c10 = count_he_framework(spec, 10, 1, 32, 256, 1);
  const double ratio = static_cast<double>(c10.per_participant.exps) /
                       static_cast<double>(c5.per_participant.exps);
  EXPECT_GT(ratio, 3.0);  // ~4x for doubled n
  EXPECT_LT(ratio, 5.0);
}

TEST(Model, TraceRoundsLinearInN) {
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  const auto c5 = count_he_framework(spec, 5, 1, 32, 256, 2);
  const auto c10 = count_he_framework(spec, 10, 1, 32, 256, 2);
  // rounds = n + constant.
  EXPECT_EQ(c10.rounds - c5.rounds, 5u);
}

TEST(Model, PaperDefaultSpecMatchesSecVII) {
  const auto spec = paper_default_spec();
  EXPECT_EQ(spec.m, 10u);
  EXPECT_EQ(spec.d1, 15u);
  EXPECT_EQ(spec.h, 15u);
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace ppgr::benchcore
