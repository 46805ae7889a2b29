// Layer probes: the per-call cost of the public mpz / group / crypto calls
// that a session's hot path makes, timed from outside through the public
// headers, at the shapes the workloads use (dl-test-256 and P-256 elements,
// two-term multi-exponentiations, single ciphertexts).
#include <array>
#include <functional>

#include "crypto/codec.h"
#include "crypto/elgamal.h"
#include "group/ec_group.h"
#include "group/multi_exp.h"
#include "group/schnorr_group.h"
#include "mpz/mont.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace ppgr;

constexpr std::size_t kInputs = 16;        // distinct operands cycled through
constexpr double kBatchSeconds = 0.01;     // calibrated batch length
constexpr int kBatches = 5;                // median over this many batches

// Seconds per call of op(i): the batch size doubles until one batch lasts
// kBatchSeconds, then the median per-call time of kBatches batches.
double per_call_s(const std::function<void(std::size_t)>& op) {
  std::size_t iters = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < iters; ++i) op(i);
    if (now_s() - t0 >= kBatchSeconds) break;
    iters *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < iters; ++i) op(i);
    per.push_back((now_s() - t0) / static_cast<double>(iters));
  }
  return median(std::move(per));
}

void probe_group(group::GroupId id, const std::string& label,
                 std::uint64_t seed, Metrics& out) {
  const auto g = group::make_group(id);
  mpz::ChaChaRng rng{seed};
  std::vector<mpz::Nat> scalars;
  std::vector<group::Elem> elems;
  std::vector<std::vector<std::uint8_t>> encoded;
  for (std::size_t i = 0; i < kInputs; ++i) {
    scalars.push_back(g->random_nonzero_scalar(rng));
    elems.push_back(g->exp_g(g->random_nonzero_scalar(rng)));
    encoded.push_back(g->serialize(elems.back()));
  }
  const crypto::KeyPair key = crypto::keygen(*g, rng);
  std::vector<crypto::Ciphertext> cts;
  std::vector<std::vector<std::uint8_t>> ct_wire;
  for (std::size_t i = 0; i < kInputs; ++i) {
    cts.push_back(crypto::encrypt_exp(*g, key.y, mpz::Nat{i % 2}, rng));
    runtime::Writer w;
    crypto::write_ciphertext(w, *g, cts.back());
    ct_wire.push_back(w.take());
  }
  // Results land here so no call can be discarded as unused.
  std::vector<group::Elem> sink(kInputs);
  std::vector<crypto::Ciphertext> ct_sink(kInputs);
  std::vector<std::uint8_t> bytes_sink;
  const auto at = [](std::size_t i) { return i % kInputs; };
  const auto next = [](std::size_t i) { return (i + 1) % kInputs; };

  if (id == group::GroupId::kDlTest256) {
    const auto& sg = dynamic_cast<const group::SchnorrGroup&>(*g);
    const mpz::MontCtx mont{sg.modulus()};
    mpz::Nat a = mont.to_mont(rng.below(sg.modulus()));
    const mpz::Nat b = mont.to_mont(rng.below(sg.modulus()));
    out.push_back({"mpz." + label + ".mont_mul_ns",
                   per_call_s([&](std::size_t) { a = mont.mul(a, b); }) * 1e9,
                   "ns"});
  } else {
    const auto& f = dynamic_cast<const group::EcGroup&>(*g).field();
    mpz::Nat a = f.random_nonzero(rng);
    const mpz::Nat b = f.random_nonzero(rng);
    out.push_back({"mpz." + label + ".fp_mul_ns",
                   per_call_s([&](std::size_t) { a = f.mul(a, b); }) * 1e9,
                   "ns"});
  }

  const std::string gp = "group." + label + ".";
  out.push_back({gp + "exp_us", per_call_s([&](std::size_t i) {
                   sink[at(i)] = g->exp(elems[at(i)], scalars[next(i)]);
                 }) * 1e6,
                 "us"});
  out.push_back({gp + "exp_g_us", per_call_s([&](std::size_t i) {
                   sink[at(i)] = g->exp_g(scalars[at(i)]);
                 }) * 1e6,
                 "us"});
  // Two terms: the ciphertext-fold shape of the comparison circuit and the
  // shuffle hop.
  out.push_back({gp + "multi_exp_term_us", per_call_s([&](std::size_t i) {
                   const std::array<group::Elem, 2> bases{elems[at(i)],
                                                          elems[next(i)]};
                   const std::array<mpz::Nat, 2> exps{scalars[next(i)],
                                                      scalars[at(i)]};
                   sink[at(i)] = group::multi_exp(*g, bases, exps);
                 }) * 1e6 / 2.0,
                 "us"});
  out.push_back({gp + "inv_us", per_call_s([&](std::size_t i) {
                   sink[at(i)] = g->inv(elems[at(i)]);
                 }) * 1e6,
                 "us"});
  out.push_back({gp + "decode_us", per_call_s([&](std::size_t i) {
                   sink[at(i)] = g->deserialize(encoded[at(i)]);
                 }) * 1e6,
                 "us"});
  // Per element of a batch: the wire path encodes whole sequences.
  out.push_back({gp + "encode_us", per_call_s([&](std::size_t) {
                   bytes_sink = g->serialize_many(elems);
                 }) * 1e6 / static_cast<double>(kInputs),
                 "us"});

  const std::string cp = "crypto." + label + ".";
  out.push_back({cp + "partial_decrypt_us", per_call_s([&](std::size_t i) {
                   ct_sink[at(i)] = crypto::partial_decrypt(*g, key.x,
                                                            cts[at(i)]);
                 }) * 1e6,
                 "us"});
  out.push_back({cp + "exp_randomize_us", per_call_s([&](std::size_t i) {
                   ct_sink[at(i)] = crypto::exp_randomize(*g, cts[at(i)],
                                                          scalars[next(i)]);
                 }) * 1e6,
                 "us"});
  out.push_back({cp + "rerandomize_us", per_call_s([&](std::size_t i) {
                   ct_sink[at(i)] = crypto::rerandomize(*g, key.y,
                                                        cts[at(i)], rng);
                 }) * 1e6,
                 "us"});
  out.push_back({cp + "ct_read_us", per_call_s([&](std::size_t i) {
                   runtime::Reader r{ct_wire[at(i)]};
                   ct_sink[at(i)] = crypto::read_ciphertext(r, *g);
                 }) * 1e6,
                 "us"});
  out.push_back({cp + "ct_write_us", per_call_s([&](std::size_t i) {
                   runtime::Writer w;
                   crypto::write_ciphertext(w, *g, cts[at(i)]);
                   ct_wire[at(i)] = w.take();
                 }) * 1e6,
                 "us"});
}

}  // namespace

void run_layer_probes(std::uint64_t seed, Metrics& out) {
  probe_group(group::GroupId::kDlTest256, "dl256", seed, out);
  probe_group(group::GroupId::kEcP256, "p256", seed + 1, out);
}

}  // namespace perfbench
