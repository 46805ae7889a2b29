#include "benchcore/model.h"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>

#include "core/codec.h"
#include "crypto/codec.h"
#include "dotprod/dot_product.h"

namespace ppgr::benchcore {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProblemSpec paper_default_spec() {
  return ProblemSpec{.m = 10, .t = 5, .d1 = 15, .d2 = 15, .h = 15};
}

Instance random_instance(const ProblemSpec& spec, std::size_t n,
                         std::uint64_t seed) {
  mpz::ChaChaRng rng{seed};
  auto attrs = [&](std::size_t bits) {
    AttrVec v(spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << bits);
    return v;
  };
  Instance inst;
  inst.v0 = attrs(spec.d1);
  inst.w = attrs(spec.d2);
  inst.infos.reserve(n);
  for (std::size_t j = 0; j < n; ++j) inst.infos.push_back(attrs(spec.d1));
  return inst;
}

HeCounts count_he_framework(const ProblemSpec& spec, std::size_t n,
                            std::size_t k, std::size_t modeled_elem_bytes,
                            std::size_t modeled_field_bits,
                            std::uint64_t seed) {
  // Counted protocol run over a mock group dressed with the modeled
  // element/scalar sizes. The metrics layer meters it exactly as it meters
  // a real run, so the tallies are the operations a real run performs.
  const group::MockGroup mock{"mock", modeled_elem_bytes, modeled_field_bits};

  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = &mock;
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  // Counts are identical at any parallelism; use every core.
  cfg.parallelism = 0;

  const Instance inst = random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  auto result = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);

  HeCounts counts;
  for (std::size_t p = 0; p < runtime::kPhaseCount; ++p)
    counts.phase_ops[p] =
        result.metrics->phase_totals(static_cast<runtime::Phase>(p));
  // The initiator performs no group operations, so the counted totals are
  // all participant work; the per-participant share is totals / n (integer
  // division — comparison-circuit cost varies slightly with each party's
  // own β bit pattern, so the division is a mean, not exact per party).
  counts.totals = result.metrics->totals();
  const OpCounts totals = group_op_counts(counts.totals);
  counts.per_participant = OpCounts{
      .muls = totals.muls / n,
      .exps = totals.exps / n,
      .fixed_base_exps = totals.fixed_base_exps / n,
      .gexps = totals.gexps / n,
      .multi_exps = totals.multi_exps / n,
      .invs = totals.invs / n,
      .serializations = totals.serializations / n,
      .deserializations = totals.deserializations / n};
  // Phase 1 runs on the real field either way (the mock only replaces the
  // DDH group); measure one real dot-product exchange.
  {
    const double t1 = now_s();
    core::Initiator initiator{cfg, inst.v0, inst.w, rng};
    core::Participant p{cfg, 1, inst.infos[0], rng};
    const auto& q = p.gain_query();
    p.receive_gain_answer(initiator.answer_gain_query(1, q));
    counts.phase1_seconds = now_s() - t1;
  }
  counts.rounds = result.trace.rounds();
  counts.total_bytes = result.trace.total_bytes();
  counts.trace = std::move(result.trace);
  return counts;
}

HePoint price_he_counts(const HeCounts& counts, const std::string& name,
                        const GroupCosts& real_costs, bool with_trace) {
  HePoint point;
  point.framework = name;
  point.per_participant = counts.per_participant;
  point.participant_seconds =
      price_group_ops(counts.per_participant, real_costs);
  point.phase1_seconds = counts.phase1_seconds;
  point.rounds = counts.rounds;
  point.total_bytes = counts.total_bytes;
  if (with_trace) point.trace = counts.trace;
  return point;
}

HePoint price_he_framework(const ProblemSpec& spec, std::size_t n,
                           std::size_t k, const group::Group& real,
                           const GroupCosts& real_costs, std::uint64_t seed) {
  const HeCounts counts = count_he_framework(
      spec, n, k, real.element_bytes(), real.field_bits(), seed);
  HePoint point = price_he_counts(counts, real.name(), real_costs,
                                  /*with_trace=*/true);
  return point;
}

std::vector<runtime::CommLink> model_he_comm(
    const ProblemSpec& spec, std::size_t n, const group::Group& g,
    const mpz::FpCtx& dot_field, std::size_t dot_s,
    const std::vector<std::size_t>& submitted_ids) {
  using runtime::Phase;
  // Aggregation keyed exactly like CommRegistry::links() sorts.
  std::map<std::tuple<Phase, std::size_t, std::size_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      acc;
  const auto add = [&acc](Phase phase, std::size_t src, std::size_t dst,
                          std::uint64_t messages, std::uint64_t bytes) {
    auto& slot = acc[{phase, src, dst}];
    slot.first += messages;
    slot.second += messages * bytes;
  };

  // Phase 1: each participant's disguised query (a d-vector blown up to an
  // s x d matrix plus two masking d-vectors) to the initiator, one (a, h)
  // pair back. Dimensions follow Participant::gain_query.
  const std::size_t d = spec.m + spec.t + 1;
  const std::size_t s = std::max(dot_s, dotprod::recommended_s(d));
  const std::size_t query_b = dotprod::bob_message_bytes(dot_field, s, d);
  const std::size_t answer_b = dotprod::alice_message_bytes(dot_field);
  for (std::size_t j = 1; j <= n; ++j) {
    add(Phase::kPhase1, j, 0, 1, query_b);
    add(Phase::kPhase1, 0, j, 1, answer_b);
  }

  // Phase 2: every ordered participant pair (a, b) carries the key
  // broadcast (one element), the proof broadcast (commitment + response)
  // and the reverse-direction Schnorr challenge (one scalar), then the
  // bitwise-beta broadcast (l ciphertexts).
  const std::size_t eb = crypto::elem_wire_bytes(g);
  const std::size_t sb = crypto::scalar_wire_bytes(g);
  const std::size_t cb = crypto::ciphertext_wire_bytes(g);
  const std::size_t l = spec.beta_bits();
  for (std::size_t a = 1; a <= n; ++a) {
    for (std::size_t b = 1; b <= n; ++b) {
      if (a == b) continue;
      add(Phase::kPhase2, a, b, 1, eb);       // public key y
      add(Phase::kPhase2, a, b, 1, eb + sb);  // proof (h, z)
      add(Phase::kPhase2, a, b, 1, sb);       // challenge c for prover b
      add(Phase::kPhase2, a, b, 1, l * cb);   // encrypted beta bits
    }
  }
  // Comparison sets: each party's flattened (n-1)*l ciphertexts go to P1
  // (P1's own set stays put), the whole n-set vector walks the decrypt-
  // shuffle chain P1 -> ... -> Pn, and Pn returns each set to its owner.
  const std::uint64_t set_b = static_cast<std::uint64_t>(n - 1) * l * cb;
  for (std::size_t j = 2; j <= n; ++j) add(Phase::kPhase2, j, 1, 1, set_b);
  for (std::size_t hop = 1; hop + 1 <= n; ++hop)
    add(Phase::kPhase2, hop, hop + 1, 1, n * set_b);
  for (std::size_t owner = 1; owner + 1 <= n; ++owner)
    add(Phase::kPhase2, n, owner, 1, set_b);

  // Phase 3: one fixed-width submission per top-k party.
  const std::size_t sub_b = core::submission_wire_bytes(spec);
  for (const std::size_t id : submitted_ids)
    add(Phase::kPhase3, id, 0, 1, sub_b);

  std::vector<runtime::CommLink> links;
  links.reserve(acc.size());
  for (const auto& [key, v] : acc) {
    links.push_back(runtime::CommLink{.phase = std::get<0>(key),
                                      .src = std::get<1>(key),
                                      .dst = std::get<2>(key),
                                      .messages = v.first,
                                      .bytes = v.second,
                                      .tx_s = 0.0});
  }
  return links;
}

SsPoint price_ss_framework(const ProblemSpec& spec, std::size_t n,
                           std::size_t k, std::uint64_t seed) {
  const std::size_t l = spec.beta_bits();
  const mpz::FpCtx& field = core::ss_field_for_beta_bits(l);
  const std::size_t t = (n - 1) / 2;  // max tolerable colluders, n >= 2t+1

  // Counted run.
  core::SsFrameworkConfig cfg;
  cfg.base.spec = spec;
  cfg.base.n = n;
  cfg.base.k = k;
  // The SS framework needs no DDH group, but FrameworkConfig validation
  // does; use a mock.
  static const group::MockGroup dummy{"ss-dummy", 32, 61};
  cfg.base.group = &dummy;
  cfg.base.dot_field = &core::default_dot_field();
  cfg.threshold = std::max<std::size_t>(1, t);
  cfg.mode = sss::MpcEngine::Mode::kCountOnly;

  const Instance inst = random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 2};
  auto result = core::run_ss_framework(cfg, inst.v0, inst.w, inst.infos, rng);

  // Calibrate the substrate at this exact (n, t, field).
  mpz::ChaChaRng crng{seed + 3};
  const SsCosts costs = calibrate_ss(field, n, cfg.threshold, crng);

  SsPoint point;
  point.totals = result.sort_costs;
  point.parallel_rounds = result.parallel_rounds;
  point.participant_seconds = price_ss_ops(result.sort_costs, costs, n);
  {
    const double t1 = now_s();
    core::Initiator initiator{cfg.base, inst.v0, inst.w, rng};
    core::Participant p{cfg.base, 1, inst.infos[0], rng};
    const auto& q = p.gain_query();
    p.receive_gain_answer(initiator.answer_gain_query(1, q));
    point.phase1_seconds = now_s() - t1;
  }
  point.trace = std::move(result.trace);
  return point;
}

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  widths_.reserve(headers.size());
  std::string line;
  for (const auto& head : headers) {
    widths_.push_back(std::max<std::size_t>(head.size() + 2, 14));
    line += head;
    line.append(widths_.back() - head.size(), ' ');
  }
  std::cout << line << "\n" << std::string(line.size(), '-') << "\n";
}

void TablePrinter::row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    line += cells[i];
    const std::size_t width = i < widths_.size() ? widths_[i] : 14;
    if (cells[i].size() < width) line.append(width - cells[i].size(), ' ');
  }
  std::cout << line << "\n";
}

std::string TablePrinter::fmt_seconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  }
  return buf;
}

std::string TablePrinter::fmt_count(std::uint64_t c) {
  char buf[32];
  if (c >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(c) / 1e6);
  } else if (c >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(c) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(c));
  }
  return buf;
}

}  // namespace ppgr::benchcore
