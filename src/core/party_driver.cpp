#include "core/party_driver.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/codec.h"
#include "core/ss_framework.h"
#include "core/streams.h"
#include "crypto/codec.h"
#include "group/accel_group.h"
#include "net/channel.h"
#include "runtime/wire.h"
#include "sss/mpc_sort.h"

namespace ppgr::core {

using mpz::ChaChaRng;
using runtime::Phase;

namespace {

using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

Payload seal(runtime::Writer&& w) {
  return std::make_shared<const std::vector<std::uint8_t>>(w.take());
}

}  // namespace

PartyResult run_party(const PartyConfig& cfg, const PartyInput& input,
                      net::Transport& transport, Rng& rng) {
  cfg.fw.validate();
  const std::size_t n = cfg.fw.n;
  const std::size_t l = cfg.fw.spec.beta_bits();
  const std::size_t me = cfg.party;
  if (me > n)
    throw std::invalid_argument("run_party: party id " + std::to_string(me) +
                                " out of range (n = " + std::to_string(n) +
                                ")");
  if (cfg.fw.fault_plan != nullptr)
    throw std::invalid_argument(
        "run_party: fault injection requires the in-process simulator "
        "transport");
  if (!transport.local(me))
    throw std::invalid_argument("run_party: transport does not host party " +
                                std::to_string(me));
  if (cfg.ss && (cfg.ss_threshold < 1 || n < 2 * cfg.ss_threshold + 1))
    throw std::invalid_argument(
        "run_party: SS needs threshold >= 1 and n >= 2t+1");

  PartyResult result;
  if (cfg.fw.metrics) result.comm = std::make_unique<runtime::CommRegistry>();
  net::Router::Config rcfg;
  rcfg.transport = &transport;
  rcfg.progress = cfg.fw.progress;
  rcfg.flight = cfg.fw.flight;
  net::Router router{n + 1, result.trace, result.comm.get(), rcfg};

  const Group& g = *cfg.fw.group;
  // Same counter-addressed substream layout as run_framework: a shared
  // master seed reproduces the in-process run bit for bit (header comment).
  mpz::StreamFamily streams{rng};
  const auto task_stream = [&streams](StreamKind kind, std::size_t party,
                                      std::size_t index) {
    return streams.stream(stream_id(kind, party, index));
  };

  const auto proto_fault = [&](Phase phase, std::size_t party,
                               const std::string& cause) {
    std::string what = "run_party: " + cause + " [phase " +
                       runtime::phase_name(phase) + ", round " +
                       std::to_string(router.round_index());
    if (party != kNoParty) what += ", party P" + std::to_string(party);
    what += "]";
    if (cfg.fw.flight != nullptr)
      cfg.fw.flight->record(
          runtime::FlightEventKind::kFault, phase,
          static_cast<std::uint16_t>(party == kNoParty ? 0 : party + 1), 0, 0,
          router.round_index());
    return ProtocolFault(FaultInfo{phase, router.round_index(), party, cause},
                         router.fault_report(), what);
  };
  // Unlike run_framework (where, without a fault plan, a decode failure is
  // a programming error), bytes from another process are untrusted input:
  // every transport or validation failure is a typed protocol fault.
  const auto rethrow_as_fault = [&](Phase phase) {
    try {
      throw;
    } catch (const ProtocolFault&) {
      throw;
    } catch (const net::ChannelError& e) {
      throw proto_fault(phase, e.src() == me ? e.dst() : e.src(),
                        std::string("channel failure: ") + e.what());
    } catch (const runtime::WireError& e) {
      throw proto_fault(phase, kNoParty,
                        std::string("undecodable message: ") + e.what());
    } catch (const std::exception& e) {
      throw proto_fault(phase, kNoParty,
                        std::string("corrupted protocol state: ") + e.what());
    }
  };
  const auto send_writer = [&](std::size_t dst, runtime::Writer&& w) {
    router.send(me, dst, w.take());
  };
  const auto recv = [&](std::size_t src) { return router.receive(src, me); };
  // One fixed-width ciphertext set per message, decoded into `out` in place.
  const auto read_set = [&](const std::vector<std::uint8_t>& bytes,
                            CipherSet& out) {
    runtime::Reader r{bytes};
    crypto::read_ciphertext_seq(r, g, out);
    r.finish();
  };

  // ---------------------------------------------------------------------
  // Initiator (party 0): phase-1 gain answers, phase-3 collection. The
  // whole of phase 2 happens among the participants.
  // ---------------------------------------------------------------------
  if (me == 0) {
    ChaChaRng my_rng = task_stream(StreamKind::kInitiatorSetup, 0, 0);
    Initiator initiator{cfg.fw, input.v0, input.w, my_rng};
    router.set_phase(Phase::kPhase1);
    try {
      for (std::size_t j = 1; j <= n; ++j) {
        const Payload rx = recv(j);
        runtime::Reader r{*rx};
        const auto q = read_bob_round1(r, *cfg.fw.dot_field);
        r.finish();
        runtime::Writer w;
        write_alice_round2(w, *cfg.fw.dot_field,
                           initiator.answer_gain_query(j, q));
        send_writer(j, std::move(w));
      }
      router.next_round();
    } catch (...) {
      rethrow_as_fault(Phase::kPhase1);
    }
    router.set_phase(Phase::kPhase3);
    try {
      result.ranks.assign(n, 0);
      for (std::size_t j = 1; j <= n; ++j) {
        const Payload rx = recv(j);
        runtime::Reader r{*rx};
        const std::size_t rank = r.u32();
        const bool has_submission = r.u8() != 0;
        if (rank == 0 || rank > n)
          throw proto_fault(Phase::kPhase3, j,
                            "claimed rank " + std::to_string(rank) +
                                " out of range");
        result.ranks[j - 1] = rank;
        if (has_submission) {
          initiator.receive_submission(read_submission(r, cfg.fw.spec));
          result.submitted_ids.push_back(j);
        }
        r.finish();
      }
      router.next_round();
      const auto bad = initiator.inconsistent_submissions();
      if (!bad.empty())
        throw proto_fault(Phase::kPhase3, bad.front(),
                          "inconsistent submission");
    } catch (...) {
      rethrow_as_fault(Phase::kPhase3);
    }
    result.faults = router.fault_report();
    return result;
  }

  // ---------------------------------------------------------------------
  // Participant me in 1..n.
  // ---------------------------------------------------------------------
  ChaChaRng my_rng = task_stream(StreamKind::kPartySetup, me, 0);
  // The participant computes through the same accelerator run_framework
  // binds its parties to; the joint-key table is armed after keygen.
  group::AcceleratedGroup accel{*cfg.fw.group};
  FrameworkConfig fw = cfg.fw;
  fw.group = &accel;
  Participant part{fw, me, input.info, my_rng};

  // ---- Phase 1: secure gain computation with the initiator ----
  router.set_phase(Phase::kPhase1);
  try {
    {
      ChaChaRng task_rng = task_stream(StreamKind::kPhase1, me, 0);
      const auto& q = part.gain_query(task_rng);
      runtime::Writer w;
      write_bob_round1(w, *cfg.fw.dot_field, q);
      send_writer(0, std::move(w));
    }
    router.next_round();
    {
      const Payload rx = recv(0);
      runtime::Reader r{*rx};
      const auto answer = read_alice_round2(r, *cfg.fw.dot_field);
      r.finish();
      part.receive_gain_answer(answer);
    }
    router.next_round();
  } catch (...) {
    rethrow_as_fault(Phase::kPhase1);
  }
  result.beta = part.beta();

  std::size_t rank = 0;
  router.set_phase(Phase::kPhase2);
  if (!cfg.ss) {
    // ---- Phase 2 (HE): keygen + proofs, bitwise encryption, comparison
    // circuits, decrypt-shuffle chain — the schedule mirrors run_framework
    // step for step, stream for stream. ----
    try {
      std::vector<Elem> pubkeys(n);
      {
        ChaChaRng task_rng = task_stream(StreamKind::kKeygen, me, 0);
        pubkeys[me - 1] = part.public_key(task_rng);
        runtime::Writer w;
        crypto::write_elem(w, g, pubkeys[me - 1]);
        const Payload payload = seal(std::move(w));
        for (std::size_t peer = 1; peer <= n; ++peer)
          if (peer != me) router.send(me, peer, payload);
      }
      {
        ChaChaRng task_rng = task_stream(StreamKind::kProve, me, 0);
        const crypto::SchnorrTranscript t = part.prove_key(n - 1, task_rng);
        // Full transcript on the wire (deviation from the in-process run,
        // which shares challenges out-of-band — see the header).
        runtime::Writer w;
        crypto::write_transcript(w, g, t);
        const Payload payload = seal(std::move(w));
        for (std::size_t peer = 1; peer <= n; ++peer)
          if (peer != me) router.send(me, peer, payload);
      }
      router.next_round();
      // Per-link FIFO: the key share arrives first, then the proof.
      for (std::size_t peer = 1; peer <= n; ++peer) {
        if (peer == me) continue;
        const Payload key_rx = recv(peer);
        const Payload proof_rx = recv(peer);
        runtime::Reader kr{*key_rx};
        const Elem y = crypto::read_elem(kr, g);
        kr.finish();
        runtime::Reader pr{*proof_rx};
        const crypto::SchnorrTranscript t = crypto::read_transcript(pr, g);
        pr.finish();
        if (!part.verify_peer_key(y, t))
          throw proto_fault(Phase::kPhase2, peer,
                            "key proof rejected (verifier P" +
                                std::to_string(me) + ")");
        pubkeys[peer - 1] = y;
      }
      const Elem joint = crypto::joint_public_key(g, pubkeys);
      part.set_joint_key(joint);
      accel.set_base_table(std::make_shared<const group::FixedBaseTable>(
          *cfg.fw.group, joint, cfg.fw.group->order().bit_length()));
      router.next_round();

      // Bitwise β encryption, broadcast. Like run_framework, the own bits
      // are re-decoded from their wire image so every evaluator (self
      // included) compares against the same validated bytes.
      std::vector<CipherSet> beta_bits(n, CipherSet(l));
      {
        std::vector<Ciphertext> own(l);
        for (std::size_t b = 0; b < l; ++b) {
          ChaChaRng task_rng = task_stream(StreamKind::kEncryptBit, me, b);
          own[b] = part.encrypt_beta_bit(b, task_rng, nullptr, 0);
        }
        runtime::Writer w;
        crypto::write_ciphertext_seq(w, g, own);
        const Payload payload = seal(std::move(w));
        for (std::size_t peer = 1; peer <= n; ++peer)
          if (peer != me) router.send(me, peer, payload);
        read_set(*payload, beta_bits[me - 1]);
      }
      for (std::size_t peer = 1; peer <= n; ++peer)
        if (peer != me) read_set(*recv(peer), beta_bits[peer - 1]);
      router.next_round();

      // Comparison circuits: slot order and stream addressing mirror
      // run_framework's flattened (evaluator, slot) fan-out.
      CipherSet my_set((n - 1) * l);
      const std::size_t j0 = me - 1;
      for (std::size_t slot = 0; slot + 1 < n; ++slot) {
        const std::size_t i0 = slot < j0 ? slot : slot + 1;  // skip self
        ChaChaRng task_rng = task_stream(StreamKind::kCompare, me, i0);
        auto tau = part.compare_against(beta_bits[i0], task_rng);
        std::move(tau.begin(), tau.end(), my_set.begin() + slot * l);
      }

      // Flattened sets travel to P1, who opens the decrypt-shuffle chain.
      std::vector<CipherSet> v_sets;
      if (me == 1) {
        v_sets.assign(n, CipherSet((n - 1) * l));
        v_sets[0] = std::move(my_set);  // own set stays put (no wire image)
        for (std::size_t q = 2; q <= n; ++q) read_set(*recv(q), v_sets[q - 1]);
      } else {
        runtime::Writer w;
        crypto::write_ciphertext_seq(w, g, my_set);
        send_writer(1, std::move(w));
      }
      router.next_round();

      // The chain hop: receive V from the predecessor (P1 already holds
      // it), shuffle every foreign set, forward — and collect the own set
      // back from Pn.
      if (me > 1) {
        const Payload rx = recv(me - 1);
        runtime::Reader r{*rx};
        v_sets.assign(n, CipherSet((n - 1) * l));
        for (auto& s : v_sets) crypto::read_ciphertext_seq(r, g, s);
        r.finish();
      }
      const std::size_t h0 = me - 1;
      for (std::size_t owner0 = 0; owner0 < n; ++owner0) {
        if (owner0 == h0) continue;
        ChaChaRng task_rng = task_stream(StreamKind::kShuffle, me, owner0);
        part.shuffle_hop(v_sets[owner0], task_rng);
      }
      CipherSet own_set;
      if (me < n) {
        runtime::Writer w;
        for (const auto& s : v_sets) crypto::write_ciphertext_seq(w, g, s);
        send_writer(me + 1, std::move(w));
        router.next_round();
        own_set.resize((n - 1) * l);
        read_set(*recv(n), own_set);
      } else {
        for (std::size_t owner0 = 0; owner0 + 1 < n; ++owner0) {
          runtime::Writer w;
          crypto::write_ciphertext_seq(w, g, v_sets[owner0]);
          send_writer(owner0 + 1, std::move(w));
        }
        router.next_round();
        own_set = std::move(v_sets[n - 1]);  // stays put, like P1's above
      }
      rank = part.compute_rank(own_set);
    } catch (...) {
      rethrow_as_fault(Phase::kPhase2);
    }
  } else {
    // ---- Phase 2 (SS baseline): the sort host (party 1) collects every β,
    // runs the one-process MPC sort engine and returns each party its rank
    // (header comment spells out what is and is not distributed here). ----
    try {
      const FpCtx& field = ss_field_for_beta_bits(l);
      if (me == 1) {
        std::vector<Nat> betas(n);
        betas[0] = part.beta();
        for (std::size_t q = 2; q <= n; ++q) {
          const Payload rx = recv(q);
          runtime::Reader r{*rx};
          betas[q - 1] = read_field_elem(r, field);
          r.finish();
        }
        ChaChaRng sort_rng = task_stream(StreamKind::kSsSort, 1, 0);
        sss::MpcEngine engine{field, n, cfg.ss_threshold, sort_rng,
                              sss::MpcEngine::Mode::kReal};
        const auto sorted = sss::mpc_rank_sort(engine, betas);
        rank = sorted.ranks[0];
        for (std::size_t q = 2; q <= n; ++q) {
          runtime::Writer w;
          w.u32(static_cast<std::uint32_t>(sorted.ranks[q - 1]));
          send_writer(q, std::move(w));
        }
        router.next_round();
      } else {
        runtime::Writer w;
        write_field_elem(w, field, part.beta());
        send_writer(1, std::move(w));
        router.next_round();
        const Payload rx = recv(1);
        runtime::Reader r{*rx};
        rank = r.u32();
        r.finish();
        if (rank == 0 || rank > n)
          throw proto_fault(Phase::kPhase2, 1,
                            "sort host returned rank " +
                                std::to_string(rank) + ", out of range");
      }
    } catch (...) {
      rethrow_as_fault(Phase::kPhase2);
    }
  }

  // ---- Phase 3: every participant reports its rank (and, within top-k,
  // its submission) to the initiator. ----
  router.set_phase(Phase::kPhase3);
  try {
    const auto sub = part.submission(rank);
    runtime::Writer w;
    w.u32(static_cast<std::uint32_t>(rank));
    w.u8(sub ? 1 : 0);
    if (sub) write_submission(w, cfg.fw.spec, *sub);
    send_writer(0, std::move(w));
    router.next_round();
  } catch (...) {
    rethrow_as_fault(Phase::kPhase3);
  }
  result.rank = rank;
  result.faults = router.fault_report();
  return result;
}

}  // namespace ppgr::core
