// Shared sweep machinery for the figure-reproduction benchmarks.
//
// A sweep point prices one framework configuration three ways:
//  - HE frameworks (the paper's DL-xxxx and ECC-xxx): exact op counts from
//    the runtime metrics of a MockGroup protocol run — the same code path a
//    real run takes — divided per participant, priced with calibrated
//    real-group costs (benchcore/calibrate.h), plus the real measured
//    phase-1 time.
//  - SS framework: exact counts from an MpcEngine::kCountOnly run, priced
//    per participant.
// The same counted runs also produce the communication traces replayed by
// the fig3b network benchmark.
#pragma once

#include <memory>
#include <string>

#include "benchcore/calibrate.h"
#include "core/framework.h"
#include "core/ss_framework.h"
#include "group/mock_group.h"

namespace ppgr::benchcore {

using core::AttrVec;
using core::ProblemSpec;

/// The paper's default evaluation parameters (Sec. VII): n=25, m=10, d1=15,
/// h=15; the paper does not state t, d2 or k — we use t = m/2, d2 = 15,
/// k = 3 (documented in EXPERIMENTS.md).
[[nodiscard]] ProblemSpec paper_default_spec();

/// Deterministic random instance of a problem (criterion, weights, infos).
struct Instance {
  AttrVec v0;
  AttrVec w;
  std::vector<AttrVec> infos;
};
[[nodiscard]] Instance random_instance(const ProblemSpec& spec, std::size_t n,
                                       std::uint64_t seed);

/// One priced HE data point.
struct HePoint {
  std::string framework;                 // "dl-1024", "ecc-p192", ...
  double participant_seconds = 0;        // modeled phase-2+ compute
  double phase1_seconds = 0;             // measured real phase-1 (per party)
  OpCounts per_participant;              // counts after division by n
  runtime::TraceRecorder trace;          // with modeled element sizes
  std::size_t rounds = 0;
  std::size_t total_bytes = 0;
  [[nodiscard]] double total_seconds() const {
    return participant_seconds + phase1_seconds;
  }
};

/// Counted protocol run, reusable across price points: DL and ECC execute
/// the same operation sequence, so one counted run prices both (only the
/// recorded trace depends on the modeled element size).
struct HeCounts {
  OpCounts per_participant;
  /// Undivided MetricsRegistry totals of the counted run — the model-side
  /// numbers bench/validate_model cross-checks against a real run's.
  runtime::OpTally totals;
  /// Per-phase op tallies from the same registry.
  std::array<runtime::OpTally, runtime::kPhaseCount> phase_ops{};
  runtime::TraceRecorder trace;
  std::size_t rounds = 0;
  std::size_t total_bytes = 0;
  double phase1_seconds = 0;
};
[[nodiscard]] HeCounts count_he_framework(const ProblemSpec& spec,
                                          std::size_t n, std::size_t k,
                                          std::size_t modeled_elem_bytes,
                                          std::size_t modeled_field_bits,
                                          std::uint64_t seed);
/// Prices a counted run with a real group's calibrated costs. The trace is
/// copied only if `with_trace`.
[[nodiscard]] HePoint price_he_counts(const HeCounts& counts,
                                      const std::string& name,
                                      const GroupCosts& real_costs,
                                      bool with_trace = false);

/// Convenience: count + price in one call (fresh counted run).
[[nodiscard]] HePoint price_he_framework(const ProblemSpec& spec,
                                         std::size_t n, std::size_t k,
                                         const group::Group& real,
                                         const GroupCosts& real_costs,
                                         std::uint64_t seed);

/// Closed-form communication model of the HE framework: per-(phase,
/// src -> dst) message counts and serialized byte totals computed from the
/// wire codecs' exact size functions — no protocol run. This is the
/// Sec. VI-B communication analysis made byte-exact; `validate_model
/// --check-comm` asserts it matches what CommRegistry measures on the wire
/// for a real run. Phase-3 routing depends on the ranking outcome, so the
/// submitting party ids are an input (everything else is data-independent).
/// Returned links are sorted by (phase, src, dst) with tx_s left at 0 —
/// virtual time belongs to the simulator, not the model.
[[nodiscard]] std::vector<runtime::CommLink> model_he_comm(
    const ProblemSpec& spec, std::size_t n, const group::Group& g,
    const mpz::FpCtx& dot_field, std::size_t dot_s,
    const std::vector<std::size_t>& submitted_ids);

/// One priced SS data point.
struct SsPoint {
  double participant_seconds = 0;
  double phase1_seconds = 0;
  sss::MpcCosts totals;
  std::uint64_t parallel_rounds = 0;
  runtime::TraceRecorder trace;
  [[nodiscard]] double total_seconds() const {
    return participant_seconds + phase1_seconds;
  }
};

[[nodiscard]] SsPoint price_ss_framework(const ProblemSpec& spec,
                                         std::size_t n, std::size_t k,
                                         std::uint64_t seed);

/// Simple aligned table printer shared by the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void row(const std::vector<std::string>& cells);
  static std::string fmt_seconds(double s);
  static std::string fmt_count(std::uint64_t c);

 private:
  std::vector<std::size_t> widths_;
};

}  // namespace ppgr::benchcore
