#include "mpz/modarith.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mpz/mont.h"
#include "mpz/sint.h"

namespace ppgr::mpz {

Nat gcd(Nat a, Nat b) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // Binary GCD.
  std::size_t shift = 0;
  while (a.is_even() && b.is_even()) {
    a = a.shr(1);
    b = b.shr(1);
    ++shift;
  }
  while (a.is_even()) a = a.shr(1);
  while (!b.is_zero()) {
    while (b.is_even()) b = b.shr(1);
    if (a > b) std::swap(a, b);
    b = Nat::sub(b, a);
  }
  return a.shl(shift);
}

std::optional<Nat> invmod(const Nat& a, const Nat& m) {
  if (m <= Nat{1}) throw std::invalid_argument("invmod: modulus must be > 1");
  // Extended Euclid over signed integers.
  Int old_r = Int::from_nat(a % m), r = Int::from_nat(m);
  Int old_s{1}, s{0};
  while (!r.is_zero()) {
    const Int q = Int::divrem(old_r, r).quot;
    Int tmp = old_r - q * r;
    old_r = std::exchange(r, std::move(tmp));
    tmp = old_s - q * s;
    old_s = std::exchange(s, std::move(tmp));
  }
  if (old_r != Int{1}) return std::nullopt;  // not coprime
  return old_s.mod(m);
}

Nat powmod(const Nat& base, const Nat& e, const Nat& m) {
  if (m.is_zero()) throw std::domain_error("powmod: zero modulus");
  if (m.is_one()) return Nat{};
  if (m.is_odd()) {
    const MontCtx ctx{m};
    return ctx.from_mont(ctx.exp(ctx.to_mont(base % m), e));
  }
  // Plain square-and-multiply with division-based reduction (rare path).
  Nat acc{1};
  Nat b = base % m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = Nat::mul(acc, acc) % m;
    if (e.bit(i)) acc = Nat::mul(acc, b) % m;
  }
  return acc;
}

namespace {

// Limb-array helpers for jacobi(): little-endian magnitudes of `len`
// significant limbs, modified in place.

// x >>= countr_zero(x) for x != 0; returns the number of bits stripped.
std::size_t strip_twos(Limb* x, std::size_t& len) {
  std::size_t w = 0;
  while (x[w] == 0) ++w;
  const int b = std::countr_zero(x[w]);
  if (w == 0 && b == 0) return 0;
  const std::size_t out = len - w;
  if (b == 0) {
    std::copy(x + w, x + len, x);
  } else {
    for (std::size_t i = 0; i + 1 < out; ++i)
      x[i] = (x[i + w] >> b) | (x[i + w + 1] << (64 - b));
    x[out - 1] = x[len - 1] >> b;
  }
  len = x[out - 1] == 0 ? out - 1 : out;  // only the top limb can vanish
  return 64 * w + static_cast<std::size_t>(b);
}

bool less(const Limb* x, std::size_t xl, const Limb* y, std::size_t yl) {
  if (xl != yl) return xl < yl;
  for (std::size_t i = xl; i-- > 0;)
    if (x[i] != y[i]) return x[i] < y[i];
  return false;
}

// x -= y for x >= y.
void sub_in_place(Limb* x, std::size_t& xl, const Limb* y, std::size_t yl) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < xl; ++i) {
    const Limb yi = i < yl ? y[i] : 0;
    if (i >= yl && borrow == 0) break;
    const Limb d = x[i] - yi;
    const Limb b1 = x[i] < yi ? 1 : 0;
    x[i] = d - borrow;
    borrow = b1 | (d < borrow ? 1 : 0);
  }
  while (xl > 0 && x[xl - 1] == 0) --xl;
}

// (2/n) = -1 iff n = 3 or 5 (mod 8); reciprocity flips iff a = n = 3 (mod 4).
bool two_flips(Limb n0) { return ((n0 & 7u) == 3) || ((n0 & 7u) == 5); }

int jacobi_word(Limb a, Limb n, int result) {
  while (a != 0) {
    const int tz = std::countr_zero(a);
    a >>= tz;
    if ((tz & 1) != 0 && two_flips(n)) result = -result;
    if (a < n) {
      std::swap(a, n);
      if ((a & n & 3u) == 3) result = -result;
    }
    a -= n;
  }
  return n == 1 ? result : 0;
}

}  // namespace

int jacobi(const Nat& a, const Nat& n) {
  if (n.is_even() || n.is_zero())
    throw std::invalid_argument("jacobi: n must be odd and positive");
  // Binary Jacobi: strip factors of two, swap by quadratic reciprocity so
  // the first operand is the larger, subtract. (a/n) depends only on a mod
  // n, so a >= n needs no initial reduction. The operands live in two
  // stack buffers (heap only past kStack limbs) and are rewritten in place;
  // once both fit one limb the word loop finishes.
  constexpr std::size_t kStack = 64;  // 4096 bits
  const std::size_t width = std::max(a.limb_count(), n.limb_count());
  std::array<Limb, kStack> abuf{}, nbuf{};
  std::vector<Limb> heap;
  Limb* x = abuf.data();
  Limb* y = nbuf.data();
  if (width > kStack) {
    heap.resize(2 * width);
    x = heap.data();
    y = heap.data() + width;
  }
  std::size_t xl = a.limb_count(), yl = n.limb_count();
  std::copy(a.limbs().begin(), a.limbs().end(), x);
  std::copy(n.limbs().begin(), n.limbs().end(), y);
  int result = 1;
  while (xl > 1 || yl > 1) {
    if (xl == 0) return 0;  // gcd = y > 1
    if ((strip_twos(x, xl) & 1) != 0 && two_flips(y[0])) result = -result;
    if (less(x, xl, y, yl)) {
      std::swap(x, y);
      std::swap(xl, yl);
      if ((x[0] & y[0] & 3u) == 3) result = -result;
    }
    sub_in_place(x, xl, y, yl);
  }
  return jacobi_word(xl == 0 ? 0 : x[0], y[0], result);
}

std::optional<Nat> sqrtmod(const Nat& a, const Nat& p) {
  const Nat a_red = a % p;
  if (a_red.is_zero()) return Nat{};
  if (jacobi(a_red, p) != 1) return std::nullopt;
  const Nat one{1};
  if ((p.limb(0) & 3u) == 3) {
    // p ≡ 3 (mod 4): sqrt = a^((p+1)/4).
    return powmod(a_red, Nat::add(p, one).shr(2), p);
  }
  // Tonelli–Shanks. Write p-1 = q * 2^s with q odd.
  Nat q = Nat::sub(p, one);
  std::size_t s = 0;
  while (q.is_even()) {
    q = q.shr(1);
    ++s;
  }
  // Find a quadratic non-residue z.
  Nat z{2};
  while (jacobi(z, p) != -1) z += one;

  Nat m_exp{static_cast<Limb>(s)};
  std::size_t m = s;
  Nat c = powmod(z, q, p);
  Nat t = powmod(a_red, q, p);
  Nat r = powmod(a_red, Nat::add(q, one).shr(1), p);
  while (!t.is_one()) {
    // Find least i in (0, m) with t^(2^i) == 1.
    std::size_t i = 0;
    Nat t2 = t;
    while (!t2.is_one()) {
      t2 = Nat::mul(t2, t2) % p;
      ++i;
      if (i == m) return std::nullopt;  // unreachable for prime p
    }
    const Nat b = powmod(c, Nat::pow2(m - i - 1), p);
    m = i;
    c = Nat::mul(b, b) % p;
    t = Nat::mul(t, c) % p;
    r = Nat::mul(r, b) % p;
  }
  return r;
}

BarrettCtx::BarrettCtx(Nat modulus) : m_(std::move(modulus)) {
  if (m_ <= Nat{1}) throw std::invalid_argument("BarrettCtx: modulus must be > 1");
  k_ = m_.limb_count();
  mu_ = Nat::pow2(2 * 64 * k_) / m_;
}

Nat BarrettCtx::reduce(const Nat& a) const {
  // Classic Barrett: q = floor(floor(a / b^(k-1)) * mu / b^(k+1)), with
  // b = 2^64; then at most two correction subtractions.
  const Nat q1 = a.shr(64 * (k_ - 1));
  const Nat q2 = Nat::mul(q1, mu_);
  const Nat q3 = q2.shr(64 * (k_ + 1));
  Nat r = Nat::sub(a, Nat::mul(q3, m_));
  while (r >= m_) r = Nat::sub(r, m_);
  return r;
}

}  // namespace ppgr::mpz
