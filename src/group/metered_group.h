// The one op-counting decorator over any Group.
//
// The paper's Sec. VI-B efficiency analysis is stated in group operations.
// Every interface-level call is reported to the runtime metrics funnel
// (runtime::count_op) and then forwarded to the wrapped group, so a metered
// run still produces correct protocol results. Real runs read the counts
// from their MetricsRegistry; benchcore's cost model runs the same protocol
// over a MockGroup through this same decorator and prices the tallies with
// calibrated per-op costs. Counting at the *interface* — not inside the
// concrete groups — is deliberate: SchnorrGroup::exp_g runs internal
// comb-table multiplications, and AcceleratedGroup (usually the wrapped
// group) serves joint-key exponentiations from a table; the model prices
// one exp_g / one table-served exp, not the muls inside them.
//
// dual_exp is forwarded uncounted: group::multi_exp already counts the
// evaluation (kAccelMultiExp / kAccelMultiExpTerm), and forwarding keeps
// the inner group's representation-native ladder instead of the generic
// one through this decorator's mul().
//
// With no metrics sink installed on the calling thread, each report is a
// thread-local load plus an untaken branch; with PPGR_DISABLE_METRICS the
// decorator degenerates to pure forwarding.
#pragma once

#include "group/group.h"
#include "runtime/metrics.h"

namespace ppgr::group {

class MeteredGroup final : public Group {
 public:
  /// Does not own `inner`; it must outlive this decorator.
  explicit MeteredGroup(const Group& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override {
    return inner_.name() + "+metered";
  }
  [[nodiscard]] const Nat& order() const override { return inner_.order(); }
  [[nodiscard]] std::size_t field_bits() const override {
    return inner_.field_bits();
  }
  [[nodiscard]] Elem generator() const override { return inner_.generator(); }
  [[nodiscard]] Elem identity() const override { return inner_.identity(); }
  [[nodiscard]] Elem mul(const Elem& x, const Elem& y) const override {
    runtime::count_op(runtime::CryptoOp::kGroupMul);
    return inner_.mul(x, y);
  }
  [[nodiscard]] Elem exp(const Elem& base, const Nat& scalar) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExp);
    return inner_.exp(base, scalar);
  }
  [[nodiscard]] Elem exp_g(const Nat& scalar) const override {
    runtime::count_op(runtime::CryptoOp::kGroupExpG);
    return inner_.exp_g(scalar);
  }
  [[nodiscard]] Elem dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                              const Nat& ey) const override {
    return inner_.dual_exp(x, ex, y, ey);
  }
  [[nodiscard]] Elem inv(const Elem& x) const override {
    runtime::count_op(runtime::CryptoOp::kGroupInv);
    return inner_.inv(x);
  }
  [[nodiscard]] bool eq(const Elem& x, const Elem& y) const override {
    return inner_.eq(x, y);
  }
  [[nodiscard]] bool is_identity(const Elem& x) const override {
    return inner_.is_identity(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const Elem& x) const override {
    runtime::count_op(runtime::CryptoOp::kGroupSerialize);
    return inner_.serialize(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize_many(
      std::span<const Elem> xs) const override {
    // Still xs.size() logical serializations, however the inner group
    // batches the work (the model prices encodings, not inversions).
    runtime::count_op(runtime::CryptoOp::kGroupSerialize, xs.size());
    return inner_.serialize_many(xs);
  }
  [[nodiscard]] Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    runtime::count_op(runtime::CryptoOp::kGroupDeserialize);
    return inner_.deserialize(bytes);
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  const Group& inner_;
};

}  // namespace ppgr::group
