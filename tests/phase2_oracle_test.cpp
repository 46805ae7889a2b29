// Differential oracle for the phase-2 evaluation (the multiexp_test pattern,
// one level up). Participant::compare_against and ::shuffle_hop compute
// through group inversions, small-exponent 2-term multi-exps and a joint-key
// comb table, on the decorator stack run_framework binds its parties to.
// The free functions below evaluate the same protocol steps literally —
// ct_scale / ct_add_plain for the comparison circuit, partial_decrypt +
// exp_randomize for the chain hop — over the bare group. Both sides draw
// from identically seeded streams; their outputs must agree byte for byte
// through the canonical element encoding, and leave the streams in the same
// state, on every group family: mock (composite order), Schnorr (unique
// Montgomery representation) and elliptic curve (Jacobian representation,
// canonicalized by serialization).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "group/accel_group.h"
#include "group/metered_group.h"
#include "group/mock_group.h"

namespace ppgr::core {
namespace {

using crypto::ct_add;
using crypto::ct_add_plain;
using crypto::ct_scale;
using mpz::ChaChaRng;

/// Reference comparison circuit, straight from the paper's step 7: γ_b =
/// own_b XOR peer_b, ω_b = (l-b)·(1 - γ_b) + Σ_{v>b} γ_v, τ_b = ω_b + own_b,
/// each τ_b re-randomized (from `pool` when given, else by fresh randomness
/// under `joint_key`).
std::vector<Ciphertext> oracle_compare(const Group& g, const Elem& joint_key,
                                       const Nat& beta, std::size_t l,
                                       const std::vector<Ciphertext>& peer_bits,
                                       Rng& rng, const crypto::ZeroPool* pool,
                                       std::size_t pool_offset) {
  const Nat& q = g.order();
  std::vector<Ciphertext> gamma;
  for (std::size_t b = 0; b < l; ++b) {
    gamma.push_back(beta.bit(b) ? ct_add_plain(g,
                                               ct_scale(g, peer_bits[b],
                                                        Nat::sub(q, Nat{1})),
                                               Nat{1})
                                : peer_bits[b]);
  }
  std::vector<Ciphertext> tau(l);
  Ciphertext suffix{.c = g.identity(), .cp = g.identity()};
  for (std::size_t b = l; b-- > 0;) {
    const Nat coeff{static_cast<mpz::Limb>(l - b)};
    Ciphertext omega = ct_scale(g, gamma[b], Nat::sub(q, coeff % q));
    omega = ct_add_plain(g, omega, coeff);
    omega = ct_add(g, omega, suffix);
    tau[b] = beta.bit(b) ? ct_add_plain(g, omega, Nat{1}) : omega;
    tau[b] = pool != nullptr
                 ? crypto::rerandomize_with(g, tau[b],
                                            pool->entries.at(pool_offset + b))
                 : crypto::rerandomize(g, joint_key, tau[b], rng);
    suffix = ct_add(g, suffix, gamma[b]);
  }
  return tau;
}

/// Reference chain hop (step 8): partial decryption with key share x, then
/// exponent randomization by a fresh scalar, per ciphertext; then a
/// Fisher–Yates shuffle.
void oracle_shuffle_hop(const Group& g, const Nat& x, CipherSet& set,
                        Rng& rng) {
  for (Ciphertext& ct : set) {
    ct = crypto::partial_decrypt(g, x, ct);
    ct = crypto::exp_randomize(g, ct, g.random_nonzero_scalar(rng));
  }
  for (std::size_t i = set.size(); i-- > 1;)
    std::swap(set[i], set[rng.below_u64(i + 1)]);
}

std::vector<std::vector<std::uint8_t>> encode(
    const Group& g, const std::vector<Ciphertext>& cts) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const Ciphertext& ct : cts) {
    out.push_back(g.serialize(ct.c));
    out.push_back(g.serialize(ct.cp));
  }
  return out;
}

std::unique_ptr<Group> make_test_group(const std::string& which) {
  if (which == "mock") return std::make_unique<group::MockGroup>("mock", 32, 61);
  if (which == "dl-test-256") return group::make_group(group::GroupId::kDlTest256);
  return group::make_group(group::GroupId::kEcP192);
}

constexpr std::uint64_t kKeySeed = 31;

// One participant bound to run_framework's decorator stack — metering over
// the accelerator over the bare group, joint-key table armed — with its
// phase-1 β established against an initiator.
class Phase2Oracle : public ::testing::TestWithParam<const char*> {
 protected:
  Phase2Oracle()
      : raw_(make_test_group(GetParam())), accel_(*raw_), metered_(accel_) {
    cfg_.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
    cfg_.n = 3;
    cfg_.k = 1;
    cfg_.group = &metered_;
    cfg_.dot_field = &default_dot_field();
    cfg_.dot_s = 4;
    l_ = cfg_.spec.beta_bits();

    ChaChaRng rng{30};
    AttrVec v0(cfg_.spec.m), w(cfg_.spec.m), info(cfg_.spec.m);
    for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg_.spec.d1);
    for (auto& x : w) x = 1 + rng.below_u64(std::uint64_t{1} << 3);
    for (auto& x : info) x = rng.below_u64(std::uint64_t{1} << cfg_.spec.d1);
    Initiator initiator{cfg_, v0, w, rng};
    part_ = std::make_unique<Participant>(cfg_, 1, info, rng);
    part_->receive_gain_answer(
        initiator.answer_gain_query(1, part_->gain_query()));

    // Key share: the participant's and the oracle's from the same stream.
    ChaChaRng key_rng{kKeySeed};
    (void)part_->public_key(key_rng);
    ChaChaRng oracle_key_rng{kKeySeed};
    x_ = crypto::keygen(*raw_, oracle_key_rng).x;

    joint_ = raw_->exp_g(raw_->random_nonzero_scalar(rng));
    part_->set_joint_key(joint_);
    accel_.set_base_table(std::make_shared<const group::FixedBaseTable>(
        *raw_, joint_, raw_->order().bit_length()));

    for (std::size_t b = 0; b < l_; ++b)
      peer_bits_.push_back(crypto::encrypt_exp(
          *raw_, joint_, Nat{rng.below_u64(2)}, rng));
  }

  std::unique_ptr<Group> raw_;
  group::AcceleratedGroup accel_;
  group::MeteredGroup metered_;
  FrameworkConfig cfg_;
  std::size_t l_ = 0;
  std::unique_ptr<Participant> part_;
  Nat x_;
  Elem joint_;
  std::vector<Ciphertext> peer_bits_;
};

TEST_P(Phase2Oracle, CompareAgainstMatchesOracle) {
  // The own β must exercise both bit branches of the circuit.
  std::size_t ones = 0;
  for (std::size_t b = 0; b < l_; ++b) ones += part_->beta().bit(b) ? 1 : 0;
  ASSERT_GT(ones, 0u);
  ASSERT_LT(ones, l_);

  ChaChaRng fast_rng{40}, oracle_rng{40};
  const auto fast = part_->compare_against(peer_bits_, fast_rng);
  const auto want = oracle_compare(*raw_, joint_, part_->beta(), l_,
                                   peer_bits_, oracle_rng, nullptr, 0);
  EXPECT_EQ(encode(*raw_, fast), encode(*raw_, want));
  EXPECT_EQ(fast_rng.next_u64(), oracle_rng.next_u64())
      << "both sides must draw the same randomness";
}

TEST_P(Phase2Oracle, CompareAgainstWithZeroPoolMatchesOracle) {
  const std::array<std::uint8_t, 32> pool_key{7};
  const crypto::ZeroPool pool =
      crypto::make_zero_pool(*raw_, joint_, pool_key, 2 * l_);
  ChaChaRng fast_rng{41}, oracle_rng{41};
  const auto fast = part_->compare_against(peer_bits_, fast_rng, &pool, l_);
  const auto want = oracle_compare(*raw_, joint_, part_->beta(), l_,
                                   peer_bits_, oracle_rng, &pool, l_);
  EXPECT_EQ(encode(*raw_, fast), encode(*raw_, want));
  EXPECT_EQ(fast_rng.next_u64(), oracle_rng.next_u64());
}

TEST_P(Phase2Oracle, ShuffleHopMatchesOracle) {
  CipherSet fast = peer_bits_;
  fast.insert(fast.end(), peer_bits_.begin(), peer_bits_.end());
  CipherSet want = fast;
  ChaChaRng fast_rng{42}, oracle_rng{42};
  part_->shuffle_hop(fast, fast_rng);
  oracle_shuffle_hop(*raw_, x_, want, oracle_rng);
  EXPECT_EQ(encode(*raw_, fast), encode(*raw_, want));
  EXPECT_EQ(fast_rng.next_u64(), oracle_rng.next_u64());
}

TEST_P(Phase2Oracle, MeteredShuffleHopCountsTheWorkThatRan) {
  // Per ciphertext: one fused 2-term multi-exp and one exp, nothing else.
  CipherSet set = peer_bits_;
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    ChaChaRng rng{43};
    part_->shuffle_hop(set, rng);
  }
  using runtime::CryptoOp;
  const runtime::OpTally& t = buf.slots().at(0).tally;
  EXPECT_EQ(t[CryptoOp::kAccelMultiExp], l_);
  EXPECT_EQ(t[CryptoOp::kAccelMultiExpTerm], 2 * l_);
  EXPECT_EQ(t[CryptoOp::kGroupExp], l_);
  EXPECT_EQ(t[CryptoOp::kGroupInv], 0u);
  EXPECT_EQ(t[CryptoOp::kGroupMul], 0u);
  EXPECT_EQ(t[CryptoOp::kGroupExpG], 0u);
  EXPECT_EQ(t[CryptoOp::kShuffleHop], 1u);
}

INSTANTIATE_TEST_SUITE_P(AllGroupFamilies, Phase2Oracle,
                         ::testing::Values("mock", "dl-test-256", "p192"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace ppgr::core
