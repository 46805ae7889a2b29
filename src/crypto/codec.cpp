#include "crypto/codec.h"

namespace ppgr::crypto {

void write_elem(Writer& w, const Group& g, const Elem& e) {
  w.raw(g.serialize(e));
}

Elem read_elem(Reader& r, const Group& g) {
  return g.deserialize(r.raw(g.element_bytes()));
}

void write_scalar(Writer& w, const Group& g, const mpz::Nat& s) {
  w.raw(s.to_bytes_be(scalar_wire_bytes(g)));
}

mpz::Nat read_scalar(Reader& r, const Group& g) {
  const mpz::Nat s = mpz::Nat::from_bytes_be(r.raw(scalar_wire_bytes(g)));
  if (s >= g.order())
    throw runtime::WireError("scalar out of range");
  return s;
}

void write_ciphertext(Writer& w, const Group& g, const Ciphertext& ct) {
  write_elem(w, g, ct.c);
  write_elem(w, g, ct.cp);
}

Ciphertext read_ciphertext(Reader& r, const Group& g) {
  Ciphertext ct;
  ct.c = read_elem(r, g);
  ct.cp = read_elem(r, g);
  return ct;
}

void write_ciphertext_seq(Writer& w, const Group& g,
                          std::span<const Ciphertext> cts) {
  // Batch the whole set through serialize_many: identical bytes and the
  // same logical serialization count, but elliptic-curve groups normalize
  // all 2·|cts| points to affine with a single batched field inversion.
  std::vector<group::Elem> elems;
  elems.reserve(2 * cts.size());
  for (const auto& ct : cts) {
    elems.push_back(ct.c);
    elems.push_back(ct.cp);
  }
  w.raw(g.serialize_many(elems));
}

void read_ciphertext_seq(Reader& r, const Group& g, std::span<Ciphertext> out) {
  const std::size_t eb = g.element_bytes();
  const auto bytes = r.raw(out.size() * 2 * eb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].c = g.deserialize(bytes.subspan(2 * i * eb, eb));
    out[i].cp = g.deserialize(bytes.subspan((2 * i + 1) * eb, eb));
  }
}

void write_transcript(Writer& w, const Group& g, const SchnorrTranscript& t) {
  write_elem(w, g, t.commitment);
  w.varint(t.challenges.size());
  for (const auto& c : t.challenges) w.nat(c);
  w.nat(t.response);
}

SchnorrTranscript read_transcript(Reader& r, const Group& g) {
  SchnorrTranscript t;
  t.commitment = read_elem(r, g);
  const std::uint64_t count = r.varint();
  if (count > r.remaining())  // each challenge takes >= 1 byte
    throw runtime::WireError("transcript: length prefix exceeds input");
  t.challenges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    t.challenges.push_back(r.nat());
    if (t.challenges.back() >= g.order())
      throw runtime::WireError("transcript: challenge out of range");
  }
  t.response = r.nat();
  if (t.response >= g.order())
    throw runtime::WireError("transcript: response out of range");
  return t;
}

std::size_t elem_wire_bytes(const Group& g) { return g.element_bytes(); }

std::size_t ciphertext_wire_bytes(const Group& g) {
  return 2 * g.element_bytes();
}

std::size_t scalar_wire_bytes(const Group& g) {
  return (g.order().bit_length() + 7) / 8;
}

}  // namespace ppgr::crypto
