// Cost calibration for the benchmark harness.
//
// The paper measures per-participant execution time on its own hardware; we
// reproduce the *shape* of those figures by combining
//   (a) exact per-protocol operation counts (the runtime metrics of a
//       protocol run over a metered MockGroup for the HE frameworks — the
//       same code path a real run takes; MpcEngine::kCountOnly for the SS
//       baseline)
// with
//   (b) per-operation wall-clock costs of the *real* cryptographic
//       implementations measured on this host at the modeled parameter
//       sizes (this header).
//
// modeled_time = Σ count_op × measured_cost_op. EXPERIMENTS.md validates the
// model against full real executions at small n.
#pragma once

#include <cstdint>

#include "group/group.h"
#include "runtime/metrics.h"
#include "sss/mpc_engine.h"

namespace ppgr::benchcore {

/// Group-operation counts of an HE-framework run, in the categories
/// price_group_ops prices. Every multi-exponentiation the protocol runs has
/// two terms (the comparison-circuit and shuffle-hop ciphertext folds).
struct OpCounts {
  std::uint64_t muls = 0;
  std::uint64_t exps = 0;             // variable-base exponentiations
  std::uint64_t fixed_base_exps = 0;  // of `exps`: served by a comb table
  std::uint64_t gexps = 0;            // generator exponentiations
  std::uint64_t multi_exps = 0;       // 2-term multi-exponentiations
  std::uint64_t invs = 0;
  std::uint64_t serializations = 0;
  std::uint64_t deserializations = 0;
};

/// Reads the group-op counters of a metered run's tally.
[[nodiscard]] OpCounts group_op_counts(const runtime::OpTally& tally);

/// Per-operation costs of a real group, in seconds.
struct GroupCosts {
  double mul_s = 0;         // one group multiplication
  double exp_s = 0;         // one exponentiation with a full-size scalar
  double gexp_s = 0;        // one fixed-base (comb-table) exponentiation
  double multi_exp2_s = 0;  // one 2-term multi-exp with full-size scalars
  double inv_s = 0;         // one inversion
  double serialize_s = 0;   // one element serialization
};

/// Measures a group's operation costs with short timed loops (deterministic
/// inputs; several hundred microseconds per group).
[[nodiscard]] GroupCosts calibrate_group(const group::Group& g,
                                         mpz::Rng& rng);

/// Per-operation costs of the SS substrate at a given (n, t, field): the
/// GRR multiplication and opening cost per *party*, plus the local
/// square-root cost of the random-bit trick.
struct SsCosts {
  double mult_party_s = 0;  // per-party share of one GRR multiplication
  double open_party_s = 0;  // per-party share of one opening
  double deal_party_s = 0;  // per-party share of one dealer sharing
  double sqrt_s = 0;        // one field square root (rand-bit finalization)
};

[[nodiscard]] SsCosts calibrate_ss(const mpz::FpCtx& field, std::size_t n,
                                   std::size_t t, mpz::Rng& rng);

/// Prices HE-framework op counts (already divided per participant). Every
/// exponentiation is priced at full scalar width: the comparison circuit's
/// small-coefficient exps and multi-exps (exponent < l) are priced like
/// full ones, so the model overestimates that step.
[[nodiscard]] double price_group_ops(const OpCounts& per_participant,
                                     const GroupCosts& costs);

/// Prices SS-framework costs per participant: counts are engine totals; each
/// party bears a 1/n share of every interactive primitive plus its own
/// square roots.
[[nodiscard]] double price_ss_ops(const sss::MpcCosts& totals,
                                  const SsCosts& costs, std::size_t n);

}  // namespace ppgr::benchcore
