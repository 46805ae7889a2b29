// Simultaneous multi-exponentiation: Π_i bases[i]^exps[i] in one pass.
//
// The phase-2 hot path is full of short products of powers — the
// comparison circuit's ω/τ accumulations (2 terms each) and the fused
// partial-decrypt + exponent-randomize of a shuffle hop (2 terms) — where
// evaluating each power separately repeats the squaring ladder per term.
// Two classic algorithms share it instead:
//
//   Straus (interleaved windows): one ladder of w-bit squaring steps over
//     the widest exponent, with a per-base 2^w-entry table multiplied in at
//     each window. Cost ≈ B squarings + k·(B/w) muls + k·2^w table muls for
//     k terms of B bits — the per-term ladder is amortized away. Best for
//     small k (every table stays in cache).
//
//   Pippenger (bucketed windows): per window, every base lands in the
//     bucket of its digit, and a running suffix sum turns the 2^c - 1
//     buckets into the window product with ~2^(c+1) muls regardless of k.
//     With c ≈ log2(k) the asymptotic cost is B·(1 + k/log k) muls — best
//     for large batches.
//
// multi_exp() picks between them by term count (kStrausMaxTerms). All three
// entry points are written against the abstract Group interface only
// (mul/identity/exp), so they serve mock, Schnorr and EC groups alike, and
// they compute exactly Π bases[i]^exps[i] — the differential suite in
// tests/multiexp_test.cpp pins them against naive Group::exp on random and
// edge-case inputs.
//
// Metrics: multi_exp() counts one kAccelMultiExp and one kAccelMultiExpTerm
// per term (the explicit straus/pippenger entry points do not). Its 2-term
// calls go to Group::dual_exp, which the decorators forward uncounted, so a
// metered multi-exp reports exactly that one evaluation — the work that ran.
// Larger shapes run through g's mul() and are counted there as well.
#pragma once

#include <span>

#include "group/group.h"

namespace ppgr::group {

/// Terms at or below which multi_exp() uses Straus; above, Pippenger.
inline constexpr std::size_t kStrausMaxTerms = 32;

/// Π bases[i]^exps[i], auto-selecting the algorithm by term count.
/// bases and exps must have equal size; 0 terms yields the identity and a
/// single term defers to g.exp. Throws std::invalid_argument on size
/// mismatch.
[[nodiscard]] Elem multi_exp(const Group& g, std::span<const Elem> bases,
                             std::span<const Nat> exps);

/// Straus interleaved multi-exp with `window_bits`-wide windows (1..8).
[[nodiscard]] Elem multi_exp_straus(const Group& g, std::span<const Elem> bases,
                                    std::span<const Nat> exps,
                                    std::size_t window_bits = 4);

/// Pippenger bucketed multi-exp; window size is chosen from the term count.
[[nodiscard]] Elem multi_exp_pippenger(const Group& g,
                                       std::span<const Elem> bases,
                                       std::span<const Nat> exps);

}  // namespace ppgr::group
