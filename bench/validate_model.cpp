// Model validation: the figure benchmarks price exact operation counts with
// calibrated per-op costs instead of running 1024-bit crypto for hours at
// n = 70. This bench justifies that two ways:
//
//  - default mode: runs the REAL framework end to end at small n and
//    compares measured mean per-participant compute time against the
//    model's prediction for the same configuration (timing sanity check);
//  - --check mode (run as the `model_validation` ctest): runs the real
//    framework with the runtime metrics layer enabled and asserts its
//    group-op, multi-exp and table-served-exp counters match the mock-group
//    run of benchcore::count_he_framework exactly, reporting the offending
//    counter on drift. Both runs take the one phase-2 code path, so this
//    pins that the operations the model prices are the ones a real group
//    runs: a change that makes them diverge fails CI;
//  - --check-comm mode (run as the `comm_validation` ctest): runs the real
//    framework and asserts the communication CommRegistry *measured* on the
//    wire (every message serialized through net::Router) matches
//    benchcore::model_he_comm — the closed-form per-(phase, link)
//    message/byte model — exactly, link by link. A codec or protocol change
//    that alters either side fails CI.
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "benchcore/model.h"

namespace {

using namespace ppgr;

/// Exits nonzero on the first counter that drifts between the measured
/// runtime metrics and the counted model run.
int run_check() {
  const core::ProblemSpec spec{.m = 4, .t = 2, .d1 = 6, .d2 = 6, .h = 6};
  constexpr std::size_t n = 4;
  constexpr std::size_t k = 2;
  constexpr std::uint64_t seed = 1234;

  // Model side: metered totals of the counted mock-group run.
  const auto g = group::make_group(group::GroupId::kDlTest256);
  const auto model = benchcore::count_he_framework(
      spec, n, k, g->element_bytes(), g->field_bits(), seed);

  // Measured side: the real framework under the metrics layer, constructed
  // exactly as count_he_framework constructs its counted run (same
  // instance, same seed-derived streams) — group operations in this
  // protocol are data-independent, so the two runs must perform the same
  // interface-level op sequence.
  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = g.get();
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  const auto inst = benchcore::random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  const auto real = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
  const auto measured = real.metrics->totals();

  int failures = 0;
  const auto expect = [&failures](const char* counter, std::uint64_t measured_v,
                                  std::uint64_t model_v) {
    if (measured_v == model_v) return;
    std::fprintf(stderr,
                 "DRIFT %-18s measured=%llu model=%llu (delta %+lld)\n",
                 counter, static_cast<unsigned long long>(measured_v),
                 static_cast<unsigned long long>(model_v),
                 static_cast<long long>(measured_v) -
                     static_cast<long long>(model_v));
    ++failures;
  };

  using runtime::CryptoOp;
  constexpr std::array kPricedOps{
      CryptoOp::kGroupMul,          CryptoOp::kGroupExp,
      CryptoOp::kGroupExpG,         CryptoOp::kGroupInv,
      CryptoOp::kGroupSerialize,    CryptoOp::kGroupDeserialize,
      CryptoOp::kAccelMultiExp,     CryptoOp::kAccelMultiExpTerm,
      CryptoOp::kAccelFixedBaseExp};
  for (const CryptoOp op : kPricedOps)
    expect(runtime::op_name(op), measured[op], model.totals[op]);

  // (No divisibility-by-n assertion: comparison-circuit cost depends on
  // each party's own β bit pattern, so totals are not an exact multiple of
  // n — which is also why the model's per-participant figures use integer
  // division.)

  // Phase attribution must add up: the sum over the model run's per-phase
  // tallies equals its undivided totals for every op.
  runtime::OpTally phase_sum;
  for (const auto& t : model.phase_ops) phase_sum += t;
  for (const CryptoOp op : kPricedOps)
    expect((std::string("phases(") + runtime::op_name(op) + ")").c_str(),
           phase_sum[op], model.totals[op]);

  if (failures != 0) {
    std::fprintf(stderr,
                 "\nmodel validation FAILED: %d counter(s) drifted between "
                 "benchcore::count_he_framework and the measured runtime "
                 "metrics\n",
                 failures);
    return 1;
  }
  std::printf("model validation OK: measured runtime counters match the "
              "mock-group model run exactly\n"
              "  group_exp=%llu group_exp_g=%llu group_mul=%llu "
              "group_inv=%llu accel_multi_exp=%llu (n=%zu, l=%zu)\n",
              static_cast<unsigned long long>(measured[CryptoOp::kGroupExp]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupExpG]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupMul]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupInv]),
              static_cast<unsigned long long>(
                  measured[CryptoOp::kAccelMultiExp]),
              n, spec.beta_bits());
  return 0;
}

/// Exits nonzero on the first (phase, src -> dst) link whose measured
/// message count or serialized byte total drifts from the closed-form
/// communication model.
int run_check_comm() {
  const core::ProblemSpec spec{.m = 4, .t = 2, .d1 = 6, .d2 = 6, .h = 6};
  constexpr std::size_t n = 4;
  constexpr std::size_t k = 2;
  constexpr std::uint64_t seed = 1234;

  const auto g = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = g.get();
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  const auto inst = benchcore::random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  const auto real = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);

  const auto measured = real.comm->links();
  const auto modeled = benchcore::model_he_comm(
      spec, n, *g, *cfg.dot_field, cfg.dot_s, real.submitted_ids);

  int failures = 0;
  const auto link_name = [](const runtime::CommLink& lk) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %zu->%zu",
                  runtime::phase_name(lk.phase), lk.src, lk.dst);
    return std::string{buf};
  };
  const std::size_t common = std::min(measured.size(), modeled.size());
  for (std::size_t i = 0; i < common; ++i) {
    const auto& ms = measured[i];
    const auto& md = modeled[i];
    if (ms.phase != md.phase || ms.src != md.src || ms.dst != md.dst) {
      std::fprintf(stderr, "LINK MISMATCH at %zu: measured %s vs model %s\n",
                   i, link_name(ms).c_str(), link_name(md).c_str());
      ++failures;
      continue;
    }
    if (ms.messages != md.messages || ms.bytes != md.bytes) {
      std::fprintf(
          stderr,
          "DRIFT %-16s measured msgs=%llu bytes=%llu  model msgs=%llu "
          "bytes=%llu\n",
          link_name(ms).c_str(), static_cast<unsigned long long>(ms.messages),
          static_cast<unsigned long long>(ms.bytes),
          static_cast<unsigned long long>(md.messages),
          static_cast<unsigned long long>(md.bytes));
      ++failures;
    }
  }
  if (measured.size() != modeled.size()) {
    std::fprintf(stderr, "LINK COUNT drift: measured %zu links, model %zu\n",
                 measured.size(), modeled.size());
    ++failures;
  }

  // Cross-pillar consistency: the comm registry and the replayable trace
  // must account for the same wire, byte for byte.
  if (real.comm->total_bytes() != real.trace.total_bytes() ||
      real.comm->message_count() != real.trace.message_count()) {
    std::fprintf(stderr,
                 "PILLAR drift: comm bytes=%llu msgs=%zu vs trace bytes=%zu "
                 "msgs=%zu\n",
                 static_cast<unsigned long long>(real.comm->total_bytes()),
                 real.comm->message_count(), real.trace.total_bytes(),
                 real.trace.message_count());
    ++failures;
  }

  if (failures != 0) {
    std::fprintf(stderr,
                 "\ncomm validation FAILED: %d link(s) drifted between the "
                 "measured wire bytes and benchcore::model_he_comm\n",
                 failures);
    return 1;
  }
  std::printf("comm validation OK: measured wire bytes match the closed-form "
              "model on all %zu links\n"
              "  messages=%zu bytes=%llu rounds=%zu virtual=%.6fs (n=%zu, "
              "l=%zu)\n",
              measured.size(), real.comm->message_count(),
              static_cast<unsigned long long>(real.comm->total_bytes()),
              real.comm->rounds(), real.comm->virtual_seconds(), n,
              spec.beta_bits());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return run_check();
  if (argc > 1 && std::strcmp(argv[1], "--check-comm") == 0)
    return run_check_comm();
  using namespace ppgr;
  using benchcore::TablePrinter;

  // Small spec so the real run stays in seconds.
  core::ProblemSpec spec{.m = 6, .t = 3, .d1 = 8, .d2 = 8, .h = 8};

  std::printf("Model validation: measured real runs vs modeled predictions\n"
              "(l = %zu bits)\n\n", spec.beta_bits());
  TablePrinter table({"group", "n", "measured/party", "modeled/party",
                      "model/measured"});

  mpz::ChaChaRng rng{66};
  for (const auto gid : {group::GroupId::kEcP192, group::GroupId::kDl1024}) {
    const auto g = group::make_group(gid);
    const auto costs = benchcore::calibrate_group(*g, rng);
    for (const std::size_t n : {4u, 6u, 8u}) {
      const auto inst = benchcore::random_instance(spec, n, 77 + n);
      core::FrameworkConfig cfg;
      cfg.spec = spec;
      cfg.n = n;
      cfg.k = 2;
      cfg.group = g.get();
      cfg.dot_field = &core::default_dot_field();
      mpz::ChaChaRng run_rng{88 + n};
      const auto real =
          core::run_framework(cfg, inst.v0, inst.w, inst.infos, run_rng);
      double measured = 0;
      for (std::size_t j = 1; j <= n; ++j) measured += real.compute_seconds[j];
      measured /= static_cast<double>(n);

      const auto modeled =
          benchcore::price_he_framework(spec, n, 2, *g, costs, 77 + n);
      char ratio[16];
      std::snprintf(ratio, sizeof(ratio), "%.2f",
                    modeled.total_seconds() / measured);
      table.row({g->name(), std::to_string(n),
                 TablePrinter::fmt_seconds(measured),
                 TablePrinter::fmt_seconds(modeled.total_seconds()), ratio});
    }
  }
  std::printf("\nA ratio near 1.0 validates pricing counted ops with "
              "calibrated costs.\n");
  return 0;
}
