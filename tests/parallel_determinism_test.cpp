// Determinism of the parallel execution engine: run_framework must produce
// bit-identical outputs — ranks, submitted ids, β values and the full
// communication trace — for every cfg.parallelism value under the same
// seed, and ranks must stay correct (vs the plain reference) when the
// engine actually runs multi-threaded. This test is also the TSan workload
// proving the engine race-free (scripts/ci.sh runs it under the tsan
// preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "core/framework.h"
#include "group/schnorr_group.h"
#include "mpz/modarith.h"
#include "net/fault.h"

namespace ppgr::core {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

FrameworkConfig small_config(const group::Group& g, std::size_t parallelism) {
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 5;
  cfg.k = 2;
  cfg.group = &g;
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  cfg.parallelism = parallelism;
  return cfg;
}

std::vector<AttrVec> random_infos(const ProblemSpec& spec, std::size_t n,
                                  mpz::Rng& rng) {
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < n; ++j) {
    AttrVec v(spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << spec.d1);
    infos.push_back(std::move(v));
  }
  return infos;
}

FrameworkResult run_at(std::size_t parallelism, std::uint64_t seed) {
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = small_config(*g, parallelism);
  ChaChaRng rng{seed};
  AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
  for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
  const auto infos = random_infos(cfg.spec, cfg.n, rng);
  return run_framework(cfg, v0, w, infos, rng);
}

void expect_identical(const FrameworkResult& a, const FrameworkResult& b,
                      const char* what) {
  EXPECT_EQ(a.ranks, b.ranks) << what;
  EXPECT_EQ(a.submitted_ids, b.submitted_ids) << what;
  ASSERT_EQ(a.betas.size(), b.betas.size()) << what;
  for (std::size_t j = 0; j < a.betas.size(); ++j)
    EXPECT_EQ(a.betas[j], b.betas[j]) << what << ": beta " << j;
  EXPECT_EQ(a.trace.total_bytes(), b.trace.total_bytes()) << what;
  ASSERT_EQ(a.trace.transfers().size(), b.trace.transfers().size()) << what;
  for (std::size_t i = 0; i < a.trace.transfers().size(); ++i) {
    const auto& ta = a.trace.transfers()[i];
    const auto& tb = b.trace.transfers()[i];
    EXPECT_EQ(ta.round, tb.round) << what << ": transfer " << i;
    EXPECT_EQ(ta.src, tb.src) << what << ": transfer " << i;
    EXPECT_EQ(ta.dst, tb.dst) << what << ": transfer " << i;
    EXPECT_EQ(ta.bytes, tb.bytes) << what << ": transfer " << i;
  }
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeOutputs) {
  const auto serial = run_at(1, 2024);
  const auto two = run_at(2, 2024);
  expect_identical(serial, two, "threads=1 vs threads=2");

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const auto many = run_at(hw, 2024);
  expect_identical(serial, many, "threads=1 vs threads=hw");

  // parallelism = 0 resolves to hardware concurrency — still identical.
  const auto autod = run_at(0, 2024);
  expect_identical(serial, autod, "threads=1 vs threads=auto");
}

TEST(ParallelDeterminism, DifferentSeedsDiffer) {
  // Sanity: the determinism above is not the degenerate "everything
  // constant" case — a different root seed must change the β values.
  const auto a = run_at(2, 7);
  const auto b = run_at(2, 8);
  ASSERT_EQ(a.betas.size(), b.betas.size());
  bool any_diff = false;
  for (std::size_t j = 0; j < a.betas.size(); ++j)
    if (!(a.betas[j] == b.betas[j])) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(ParallelDeterminism, RanksCorrectUnderThreading) {
  // Rank correctness vs the plain reference while the engine is actually
  // multi-threaded (and under TSan: the race detector workload).
  const auto g = make_group(GroupId::kDlTest256);
  const FrameworkConfig cfg = small_config(*g, 4);
  ChaChaRng rng{99};
  AttrVec v0(cfg.spec.m, 0), w(cfg.spec.m);
  for (auto& x : w) x = 1 + rng.below_u64(std::uint64_t{1} << (cfg.spec.d2 - 1));
  const auto infos = random_infos(cfg.spec, cfg.n, rng);
  const auto result = run_framework(cfg, v0, w, infos, rng);

  std::vector<Int> gains;
  for (const auto& v : infos) gains.push_back(gain(cfg.spec, v0, w, v));
  auto sorted = gains;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
    EXPECT_EQ(result.ranks, reference_ranks(cfg.spec, v0, w, infos));
  } else {
    // Ties can resolve either way; ranks must still be a valid assignment.
    for (const auto r : result.ranks) {
      EXPECT_GE(r, 1u);
      EXPECT_LE(r, cfg.n);
    }
  }
  // Submissions = exactly the rank <= k set, threading or not.
  for (std::size_t j = 0; j < cfg.n; ++j) {
    const bool submitted =
        std::find(result.submitted_ids.begin(), result.submitted_ids.end(),
                  j + 1) != result.submitted_ids.end();
    EXPECT_EQ(submitted, result.ranks[j] <= cfg.k);
  }
}

TEST(ParallelDeterminism, EcGroupAlsoDeterministic) {
  // The EC group shares the lazy fixed-base table (now call_once-guarded);
  // cover it with a two-thread run compared against serial.
  const auto g = make_group(GroupId::kEcP192);
  ChaChaRng rng1{55}, rng2{55};
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 2, .t = 1, .d1 = 5, .d2 = 3, .h = 4};
  cfg.n = 3;
  cfg.k = 1;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  const std::vector<AttrVec> infos{{1, 2}, {9, 4}, {5, 6}};
  cfg.parallelism = 1;
  const auto serial = run_framework(cfg, {0, 0}, {1, 1}, infos, rng1);
  cfg.parallelism = 3;
  const auto threaded = run_framework(cfg, {0, 0}, {1, 1}, infos, rng2);
  expect_identical(serial, threaded, "ec: threads=1 vs threads=3");
}

// A forwarding group that damages chosen elements of outgoing ciphertext
// sets: the `call`-th serialized set (counted over sets of exactly
// `set_elems` elements, which only the phase-2 set transfers produce) gets
// element `elem` overwritten with `value`'s encoding. The receiver gets a
// well-framed message whose content fails validation at decode.
class DamagingGroup final : public group::Group {
 public:
  struct Damage {
    std::size_t call;
    std::size_t elem;
    Nat value;
  };
  DamagingGroup(const group::Group& inner, std::size_t set_elems,
                std::vector<Damage> damage)
      : inner_(inner), set_elems_(set_elems), damage_(std::move(damage)) {}

  std::string name() const override { return inner_.name(); }
  const Nat& order() const override { return inner_.order(); }
  std::size_t field_bits() const override { return inner_.field_bits(); }
  group::Elem generator() const override { return inner_.generator(); }
  group::Elem identity() const override { return inner_.identity(); }
  group::Elem mul(const group::Elem& x, const group::Elem& y) const override {
    return inner_.mul(x, y);
  }
  group::Elem exp(const group::Elem& b, const Nat& e) const override {
    return inner_.exp(b, e);
  }
  group::Elem exp_g(const Nat& e) const override { return inner_.exp_g(e); }
  group::Elem dual_exp(const group::Elem& x, const Nat& ex,
                       const group::Elem& y, const Nat& ey) const override {
    return inner_.dual_exp(x, ex, y, ey);
  }
  group::Elem inv(const group::Elem& x) const override {
    return inner_.inv(x);
  }
  bool eq(const group::Elem& x, const group::Elem& y) const override {
    return inner_.eq(x, y);
  }
  bool is_identity(const group::Elem& x) const override {
    return inner_.is_identity(x);
  }
  std::vector<std::uint8_t> serialize(const group::Elem& x) const override {
    return inner_.serialize(x);
  }
  std::vector<std::uint8_t> serialize_many(
      std::span<const group::Elem> xs) const override {
    auto out = inner_.serialize_many(xs);
    if (xs.size() != set_elems_) return out;
    const std::size_t call = calls_.fetch_add(1);
    const std::size_t eb = element_bytes();
    for (const Damage& d : damage_) {
      if (d.call != call) continue;
      const auto bytes = d.value.to_bytes_be(eb);
      std::copy(bytes.begin(), bytes.end(),
                out.begin() + static_cast<std::ptrdiff_t>(d.elem * eb));
    }
    return out;
  }
  group::Elem deserialize(std::span<const std::uint8_t> b) const override {
    return inner_.deserialize(b);
  }
  std::size_t element_bytes() const override { return inner_.element_bytes(); }

 private:
  const group::Group& inner_;
  std::size_t set_elems_;
  std::vector<Damage> damage_;
  mutable std::atomic<std::size_t> calls_{0};
};

struct FaultOutcome {
  runtime::Phase phase = runtime::Phase::kSetup;
  std::size_t round = 0;
  std::size_t party = 0;
  std::string what;
  std::string report_json;

  bool operator==(const FaultOutcome&) const = default;
};

// Runs the small instance with damaged set transfers under an installed
// (delay-only) fault plan, which types the decode failure as a
// ProtocolFault; the run must fault.
FaultOutcome run_damaged(std::size_t parallelism,
                         const std::vector<DamagingGroup::Damage>& damage) {
  const auto inner = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg = small_config(*inner, parallelism);
  const DamagingGroup g{*inner, 2 * (cfg.n - 1) * cfg.spec.beta_bits(),
                        damage};
  cfg.group = &g;
  const net::FaultPlan plan{net::parse_fault_plan("seed=5,delay=0.3")};
  cfg.fault_plan = &plan;
  ChaChaRng rng{4242};
  AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
  for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
  const auto infos = random_infos(cfg.spec, cfg.n, rng);
  FaultOutcome out;
  try {
    (void)run_framework(cfg, v0, w, infos, rng);
    ADD_FAILURE() << "damaged run completed";
  } catch (const ProtocolFault& pf) {
    out = {pf.info().phase, pf.info().round, pf.info().party, pf.what(),
           pf.report().to_json()};
  }
  return out;
}

// Same outcome at parallelism 1, 2 and 4; returns it.
FaultOutcome run_damaged_everywhere(
    const std::vector<DamagingGroup::Damage>& damage) {
  const FaultOutcome serial = run_damaged(1, damage);
  for (const std::size_t par : {std::size_t{2}, std::size_t{4}})
    EXPECT_EQ(run_damaged(par, damage), serial) << "parallelism " << par;
  EXPECT_EQ(serial.phase, runtime::Phase::kPhase2);
  EXPECT_EQ(serial.party, kNoParty);
  return serial;
}

Nat dl_test_modulus() {
  const auto g = make_group(GroupId::kDlTest256);
  return dynamic_cast<const group::SchnorrGroup&>(*g).modulus();
}

Nat non_residue(const Nat& p) {
  Nat z{2};
  while (mpz::jacobi(z, p) != -1) z += Nat{1};
  return z;
}

bool mentions(const FaultOutcome& o, const std::string& text) {
  return o.what.find(text) != std::string::npos;
}

TEST(ParallelDeterminism, DamagedSetFaultsIdenticallyAtEveryParallelism) {
  // One non-residue in one set, at each place V is decoded in parallel:
  // P1 gathering the comparison sets, the chain forwarding V between hops,
  // Pn returning the sets. Set-transfer calls are numbered n-1 gathers,
  // then n sets per forwarded V (V leaving P(h+1) holds calls
  // n-1 + h·n + owner index), then n-1 returns.
  const std::size_t n = 5;
  const Nat p = dl_test_modulus();
  const Nat z = non_residue(p);
  const std::size_t gather = 2;
  const std::size_t forward = (n - 1) + 1 * n + 2;  // V leaving P2, P3's set
  const std::size_t ret = (n - 1) + (n - 1) * n + 1;
  std::vector<std::size_t> rounds;
  for (const std::size_t call : {gather, forward, ret}) {
    const FaultOutcome o = run_damaged_everywhere({{call, 5, z}});
    EXPECT_TRUE(mentions(o, "invalid message content: "
                            "SchnorrGroup::deserialize: not a residue"))
        << o.what;
    rounds.push_back(o.round);
  }
  // Each site faults in its own round.
  EXPECT_LT(rounds[0], rounds[1]);
  EXPECT_LT(rounds[1], rounds[2]);
}

TEST(ParallelDeterminism, TwoDamagedSetsReportTheLowerSet) {
  // Two sets of one forwarded V fail with different errors; the lower set's
  // error is the one reported, at every parallelism.
  const std::size_t n = 5;
  const std::size_t forward = (n - 1) + 2 * n;  // V leaving P3
  const Nat p = dl_test_modulus();
  const Nat z = non_residue(p);
  // P2's set (index 1) and P4's set (index 3).
  const FaultOutcome lower_residue =
      run_damaged_everywhere({{forward + 1, 0, z}, {forward + 3, 9, p}});
  EXPECT_TRUE(mentions(lower_residue, "not a residue")) << lower_residue.what;
  const FaultOutcome lower_range =
      run_damaged_everywhere({{forward + 1, 0, p}, {forward + 3, 9, z}});
  EXPECT_TRUE(mentions(lower_range, "out of range")) << lower_range.what;
  EXPECT_EQ(lower_residue.round, lower_range.round);
}

}  // namespace
}  // namespace ppgr::core
