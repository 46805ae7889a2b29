// Tests for the group layer: abstract group laws over every instantiation,
// safe-prime parameter validation, elliptic-curve specifics, serialization,
// and the decorators (metering, precompute acceleration).
#include <gtest/gtest.h>

#include <array>

#include "group/accel_group.h"
#include "group/fixed_base.h"
#include "group/ec_group.h"
#include "group/group.h"
#include "group/metered_group.h"
#include "group/mock_group.h"
#include "group/multi_exp.h"
#include "group/schnorr_group.h"
#include "runtime/metrics.h"
#include "mpz/modarith.h"
#include "mpz/prime.h"

namespace ppgr::group {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;

// Cheap-to-test groups; the large DL groups get targeted tests below.
std::vector<GroupId> fast_group_ids() {
  return {GroupId::kDlTest256, GroupId::kEcP192, GroupId::kEcP224,
          GroupId::kEcP256, GroupId::kDl1024};
}

class GroupLaws : public ::testing::TestWithParam<GroupId> {};

TEST_P(GroupLaws, AxiomsAndExponentArithmetic) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{1};
  const Elem gen = g->generator();
  EXPECT_FALSE(g->is_identity(gen));
  // Generator has order q: g^q == 1 and g^1 != 1.
  EXPECT_TRUE(g->is_identity(g->exp(gen, g->order())));

  for (int i = 0; i < 6; ++i) {
    const Nat x = g->random_scalar(rng), y = g->random_scalar(rng);
    const Elem gx = g->exp_g(x), gy = g->exp_g(y);
    // Homomorphism: g^x * g^y == g^(x+y mod q).
    const Nat xpy = Nat::add(x, y) % g->order();
    EXPECT_TRUE(g->eq(g->mul(gx, gy), g->exp_g(xpy)));
    // (g^x)^y == g^(xy mod q).
    const Nat xy = Nat::mul(x, y) % g->order();
    EXPECT_TRUE(g->eq(g->exp(gx, y), g->exp_g(xy)));
    // Inverses and identity.
    EXPECT_TRUE(g->is_identity(g->mul(gx, g->inv(gx))));
    EXPECT_TRUE(g->eq(g->mul(gx, g->identity()), gx));
    EXPECT_TRUE(g->eq(g->div(g->mul(gx, gy), gy), gx));
    // Commutativity / associativity.
    EXPECT_TRUE(g->eq(g->mul(gx, gy), g->mul(gy, gx)));
  }
}

TEST_P(GroupLaws, ExponentEdgeCases) {
  const auto g = make_group(GetParam());
  const Elem gen = g->generator();
  EXPECT_TRUE(g->is_identity(g->exp(gen, Nat{})));
  EXPECT_TRUE(g->eq(g->exp(gen, Nat{1}), gen));
  EXPECT_TRUE(g->eq(g->exp(gen, Nat{2}), g->mul(gen, gen)));
  // exp of the identity stays identity.
  EXPECT_TRUE(g->is_identity(g->exp(g->identity(), Nat{12345})));
  // q-1 gives the inverse of g.
  EXPECT_TRUE(
      g->eq(g->exp(gen, Nat::sub(g->order(), Nat{1})), g->inv(gen)));
}

TEST_P(GroupLaws, SerializationRoundTrip) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{2};
  for (int i = 0; i < 6; ++i) {
    const Elem e = g->exp_g(g->random_scalar(rng));
    const auto bytes = g->serialize(e);
    EXPECT_EQ(bytes.size(), g->element_bytes());
    EXPECT_TRUE(g->eq(g->deserialize(bytes), e));
  }
  EXPECT_THROW((void)g->deserialize(std::vector<std::uint8_t>(3, 0x5A)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, GroupLaws,
                         ::testing::ValuesIn(fast_group_ids()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(SchnorrGroup, EmbeddedSafePrimesAreSafePrimes) {
  ChaChaRng rng{3};
  struct Case {
    GroupId id;
    std::size_t bits;
  };
  for (const auto& [id, bits] :
       {Case{GroupId::kDlTest256, 256}, Case{GroupId::kDl1024, 1024},
        Case{GroupId::kDl2048, 2048}, Case{GroupId::kDl3072, 3072}}) {
    const auto g = make_group(id);
    auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
    ASSERT_NE(sg, nullptr);
    EXPECT_EQ(sg->modulus().bit_length(), bits) << sg->name();
    EXPECT_EQ(sg->order(), Nat::sub(sg->modulus(), Nat{1}).shr(1));
    EXPECT_TRUE(mpz::is_probable_prime(sg->modulus(), rng, 8)) << sg->name();
    EXPECT_TRUE(mpz::is_probable_prime(sg->order(), rng, 8)) << sg->name();
  }
}

TEST(SchnorrGroup, GeneratorIsQuadraticResidue) {
  const auto g = make_group(GroupId::kDlTest256);
  auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
  EXPECT_EQ(mpz::jacobi(Nat{4}, sg->modulus()), 1);
}

TEST(SchnorrGroup, DeserializeRejectsNonResidue) {
  const auto g = make_group(GroupId::kDlTest256);
  auto* sg = dynamic_cast<SchnorrGroup*>(g.get());
  const std::size_t width = g->element_bytes();
  // Each rejection keeps its exception type and message.
  const auto expect_reject = [&](const std::vector<std::uint8_t>& bytes,
                                 const std::string& what) {
    try {
      (void)g->deserialize(bytes);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "SchnorrGroup::deserialize: " + what);
    }
  };
  // A quadratic non-residue.
  Nat z{2};
  while (mpz::jacobi(z, sg->modulus()) != -1) z += Nat{1};
  expect_reject(z.to_bytes_be(width), "not a residue");
  // Zero, p and 2^256 - 1 are out of range.
  expect_reject(Nat{}.to_bytes_be(width), "out of range");
  expect_reject(sg->modulus().to_bytes_be(width), "out of range");
  expect_reject(Nat::sub(Nat::pow2(8 * width), Nat{1}).to_bytes_be(width),
                "out of range");
  // One byte short or long.
  expect_reject(std::vector<std::uint8_t>(width - 1, 0x01), "bad length");
  expect_reject(std::vector<std::uint8_t>(width + 1, 0x01), "bad length");
  // A residue still decodes.
  EXPECT_NO_THROW((void)g->deserialize(Nat{4}.to_bytes_be(width)));
}

TEST(EcGroup, StandardCurveParametersValidate) {
  for (const CurveParams& params : {nist_p192(), nist_p224(), nist_p256()}) {
    const EcGroup curve{params};
    // Base point on curve and of exact prime order.
    EXPECT_TRUE(curve.on_curve(params.gx, params.gy)) << params.name;
    EXPECT_TRUE(curve.is_identity(curve.exp(curve.generator(), params.order)))
        << params.name;
    ChaChaRng rng{4};
    EXPECT_TRUE(mpz::is_probable_prime(params.order, rng, 8)) << params.name;
    EXPECT_TRUE(mpz::is_probable_prime(params.p, rng, 8)) << params.name;
  }
}

TEST(EcGroup, AffineRoundTripAndNegation) {
  const EcGroup curve{nist_p192()};
  ChaChaRng rng{5};
  const Elem pt = curve.exp_g(curve.random_nonzero_scalar(rng));
  const auto [x, y] = curve.to_affine(pt);
  EXPECT_TRUE(curve.eq(curve.from_affine(x, y), pt));
  // -P has the same x, negated y.
  const auto [xn, yn] = curve.to_affine(curve.inv(pt));
  EXPECT_EQ(xn, x);
  EXPECT_EQ(yn, Nat::sub(curve.field().p(), y));
  EXPECT_THROW((void)curve.to_affine(curve.identity()), std::domain_error);
}

TEST(EcGroup, FromAffineValidates) {
  const EcGroup curve{nist_p192()};
  EXPECT_THROW((void)curve.from_affine(Nat{1}, Nat{1}), std::invalid_argument);
}

TEST(EcGroup, AdditionSpecialCases) {
  const EcGroup curve{nist_p192()};
  const Elem g = curve.generator();
  // P + (-P) = identity.
  EXPECT_TRUE(curve.is_identity(curve.mul(g, curve.inv(g))));
  // P + identity = P (both orders).
  EXPECT_TRUE(curve.eq(curve.mul(g, curve.identity()), g));
  EXPECT_TRUE(curve.eq(curve.mul(curve.identity(), g), g));
  // Doubling via mul(x, x) agrees with exp(x, 2) — triggers the u1==u2 path.
  EXPECT_TRUE(curve.eq(curve.mul(g, g), curve.exp(g, Nat{2})));
  // 2P + P == 3P, mixing representations with different Z coordinates.
  const Elem g2 = curve.exp(g, Nat{2});
  EXPECT_TRUE(curve.eq(curve.mul(g2, g), curve.exp(g, Nat{3})));
}

TEST(EcGroup, JacobianEqIgnoresRepresentation) {
  // exp produces a different Jacobian representative than repeated mul, but
  // eq must see through it.
  const EcGroup curve{nist_p256()};
  const Elem g = curve.generator();
  Elem acc = curve.identity();
  for (int i = 0; i < 5; ++i) acc = curve.mul(acc, g);
  EXPECT_TRUE(curve.eq(acc, curve.exp(g, Nat{5})));
}

TEST(EcGroup, IdentitySerializesDistinctly) {
  const EcGroup curve{nist_p192()};
  const auto id_bytes = curve.serialize(curve.identity());
  EXPECT_TRUE(curve.is_identity(curve.deserialize(id_bytes)));
  const auto g_bytes = curve.serialize(curve.generator());
  EXPECT_NE(id_bytes, g_bytes);
}

TEST(EcGroup, DeserializeRejectsOffCurvePoint) {
  const EcGroup curve{nist_p192()};
  auto bytes = curve.serialize(curve.generator());
  bytes.back() ^= 1;  // corrupt y
  EXPECT_THROW((void)curve.deserialize(bytes), std::invalid_argument);
}

TEST(MeteredGroup, CountsAndForwards) {
  using runtime::CryptoOp;
  const auto inner = make_group(GroupId::kEcP192);
  const MeteredGroup g{*inner};
  ChaChaRng rng{6};
  const Nat x = g.random_scalar(rng);
  runtime::MetricsBuffer buf;
  Elem e;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    e = g.exp_g(x);  // fixed-base: counted as group_exp_g
    (void)g.exp(e, x);  // variable-base: counted as group_exp
    (void)g.mul(e, e);
    (void)g.inv(e);
    (void)g.deserialize(g.serialize(e));
  }
  // Outside the scope nothing is counted.
  (void)g.mul(e, e);
  ASSERT_EQ(buf.slots().size(), 1u);
  const runtime::OpTally& t = buf.slots()[0].tally;
  EXPECT_EQ(t[CryptoOp::kGroupExpG], 1u);
  EXPECT_EQ(t[CryptoOp::kGroupExp], 1u);
  EXPECT_EQ(t[CryptoOp::kGroupMul], 1u);
  EXPECT_EQ(t[CryptoOp::kGroupInv], 1u);
  EXPECT_EQ(t[CryptoOp::kGroupSerialize], 1u);
  EXPECT_EQ(t[CryptoOp::kGroupDeserialize], 1u);
  // Forwarded results match the inner group.
  EXPECT_TRUE(inner->eq(e, inner->exp_g(x)));
}

// Forwards everything to a mock group and counts the dual_exp and mul calls
// that reach it.
class CallCountingGroup final : public Group {
 public:
  explicit CallCountingGroup(const Group& inner) : inner_(inner) {}
  mutable std::size_t dual_exps = 0;
  mutable std::size_t muls = 0;

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const Nat& order() const override { return inner_.order(); }
  [[nodiscard]] std::size_t field_bits() const override {
    return inner_.field_bits();
  }
  [[nodiscard]] Elem generator() const override { return inner_.generator(); }
  [[nodiscard]] Elem identity() const override { return inner_.identity(); }
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override {
    ++muls;
    return inner_.mul(x, y);
  }
  [[nodiscard]] Elem exp(const Elem& b, const Nat& s) const override {
    return inner_.exp(b, s);
  }
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override {
    ++dual_exps;
    return inner_.dual_exp(x, ex, y, ey);
  }
  [[nodiscard]] Elem inv(const Elem& x) const override { return inner_.inv(x); }
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override {
    return inner_.eq(x, y);
  }
  [[nodiscard]] bool is_identity(const Elem& x) const override {
    return inner_.is_identity(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const Elem& x) const override {
    return inner_.serialize(x);
  }
  [[nodiscard]] Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    return inner_.deserialize(bytes);
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  const Group& inner_;
};

TEST(Decorators, ForwardDualExpToTheInnerGroup) {
  // A 2-term multi_exp over the engine's decorator stack must reach the
  // inner group's dual_exp (SchnorrGroup's Montgomery-native ladder), not
  // run the generic ladder through the decorators' mul().
  const MockGroup mock{"mock", 32, 61};
  const CallCountingGroup stub{mock};
  const AcceleratedGroup accel{stub};
  const MeteredGroup metered{accel};
  ChaChaRng rng{16};
  const std::array<Elem, 2> bases{mock.exp_g(mock.random_scalar(rng)),
                                  mock.exp_g(mock.random_scalar(rng))};
  const std::array<Nat, 2> exps{mock.random_scalar(rng),
                                mock.random_scalar(rng)};
  runtime::MetricsBuffer buf;
  Elem got;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    got = multi_exp(metered, bases, exps);
  }
  EXPECT_EQ(stub.dual_exps, 1u);
  EXPECT_EQ(stub.muls, 0u);
  EXPECT_TRUE(mock.eq(got, mock.mul(mock.exp(bases[0], exps[0]),
                                    mock.exp(bases[1], exps[1]))));
  // The one evaluation is counted once, by multi_exp itself.
  const runtime::OpTally& t = buf.slots().at(0).tally;
  EXPECT_EQ(t[runtime::CryptoOp::kAccelMultiExp], 1u);
  EXPECT_EQ(t[runtime::CryptoOp::kAccelMultiExpTerm], 2u);
  EXPECT_EQ(t[runtime::CryptoOp::kGroupMul], 0u);
}

TEST(AcceleratedGroup, CountsJointKeyTableHits) {
  // exp() on the table's base is served by the table (same value) and
  // counted as one fixed-base exp; any other base falls through uncounted.
  const auto inner = make_group(GroupId::kDlTest256);
  AcceleratedGroup g{*inner};
  ChaChaRng rng{17};
  const Elem key = inner->exp_g(inner->random_nonzero_scalar(rng));
  g.set_base_table(std::make_shared<const FixedBaseTable>(
      *inner, key, inner->order().bit_length()));
  const Nat s = inner->random_nonzero_scalar(rng);
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    EXPECT_TRUE(inner->eq(g.exp(key, s), inner->exp(key, s)));
    EXPECT_TRUE(inner->eq(g.exp(inner->generator(), s), inner->exp_g(s)));
  }
  EXPECT_EQ(buf.slots().at(0).tally[runtime::CryptoOp::kAccelFixedBaseExp],
            1u);
}

class FixedBaseOverGroups : public ::testing::TestWithParam<GroupId> {};

TEST_P(FixedBaseOverGroups, MatchesGenericExponentiation) {
  // exp_g uses the comb table; it must agree with the generic double-and-add
  // for random and edge-case scalars.
  const auto g = make_group(GetParam());
  ChaChaRng rng{7};
  const Elem gen = g->generator();
  for (int i = 0; i < 10; ++i) {
    const Nat s = g->random_scalar(rng);
    EXPECT_TRUE(g->eq(g->exp_g(s), g->exp(gen, s)));
  }
  for (const Nat& s : {Nat{}, Nat{1}, Nat{2}, Nat{15}, Nat{16},
                       Nat::sub(g->order(), Nat{1})}) {
    EXPECT_TRUE(g->eq(g->exp_g(s), g->exp(gen, s))) << s.to_dec();
  }
}

INSTANTIATE_TEST_SUITE_P(AllGroups, FixedBaseOverGroups,
                         ::testing::ValuesIn(fast_group_ids()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(FixedBase, TableDirectUse) {
  const auto g = make_group(GroupId::kEcP192);
  ChaChaRng rng{8};
  // A table over an arbitrary base, not just the generator.
  const Elem base = g->exp_g(g->random_nonzero_scalar(rng));
  const FixedBaseTable table{*g, base, g->order().bit_length()};
  EXPECT_EQ(table.windows(), (g->order().bit_length() + 3) / 4);
  const Nat s = g->random_scalar(rng);
  EXPECT_TRUE(g->eq(table.exp(*g, s), g->exp(base, s)));
  // Scalar wider than the table falls back to generic exp.
  const FixedBaseTable narrow{*g, base, 8};
  const Nat wide = Nat::from_hex("1ffff");
  EXPECT_TRUE(g->eq(narrow.exp(*g, wide), g->exp(base, wide)));
}

TEST(GroupFactory, NamesAreStable) {
  EXPECT_EQ(to_string(GroupId::kDl1024), "dl-1024");
  EXPECT_EQ(to_string(GroupId::kEcP256), "ecc-p256");
}

}  // namespace
}  // namespace ppgr::group
