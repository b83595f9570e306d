/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#ifndef PDP_UTIL_BITUTIL_H
#define PDP_UTIL_BITUTIL_H

#include <cstdint>

#include "check/check.h"

namespace pdp
{

/** True if x is a power of two (and nonzero). */
constexpr bool
isPow2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Floor of log2(x); x must be nonzero. */
constexpr unsigned
floorLog2(uint64_t x)
{
    unsigned r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** Ceiling of log2(x); x must be nonzero. */
constexpr unsigned
ceilLog2(uint64_t x)
{
    return isPow2(x) ? floorLog2(x) : floorLog2(x) + 1;
}

/** Ceiling division for unsigned integers. */
constexpr uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Division by a divisor fixed at construction: a mask and a shift when
 * it is a power of two (every geometry of the paper), the hardware
 * divide otherwise.  Keeps per-access modulo arithmetic off the divider
 * without restricting the geometries the simulator accepts.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(uint32_t d = 1)
        : d_(d), pow2_(isPow2(d)), shift_(pow2_ ? floorLog2(d) : 0)
    {
    }

    uint32_t value() const { return d_; }

    template <typename T>
    T
    mod(T x) const
    {
        return pow2_ ? x & static_cast<T>(d_ - 1) : x % d_;
    }

    template <typename T>
    T
    div(T x) const
    {
        return pow2_ ? x >> shift_ : x / d_;
    }

  private:
    uint32_t d_;
    bool pow2_;
    unsigned shift_;
};

/** Fold a 64-bit value down to `bits` bits by xor-folding. */
inline uint32_t
foldXor(uint64_t v, unsigned bits)
{
    PDP_DCHECK(bits >= 1 && bits <= 32, "foldXor to ", bits, " bits");
    uint64_t folded = v;
    for (unsigned shift = 64; shift > bits; shift = (shift + 1) / 2)
        folded = (folded ^ (folded >> ((shift + 1) / 2)));
    return static_cast<uint32_t>(folded & ((1ull << bits) - 1));
}

} // namespace pdp

#endif // PDP_UTIL_BITUTIL_H
