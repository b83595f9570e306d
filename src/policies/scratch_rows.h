/**
 * @file
 * Per-set byte rows of a replacement policy, and the one-pass kernels
 * the row-resident policies run on them.
 *
 * LRU ranks, RRIP re-reference predictions and PDP remaining protecting
 * distances are each one byte per way.  When the cache lends a per-set
 * scratch row (ways <= Cache::kMaxFpWays) the bytes live there, inside
 * the 64-byte set-metadata line the tag probe already loaded, and its
 * 16 writable bytes let each row op run as a single SSE2 pass.  Lanes
 * past `ways` then hold junk: kernels may write them, and every reader
 * masks them off.  Wider caches get policy-owned rows, `ways` bytes
 * apart with byte-scan padding after the last, and scalar loops.
 */

#ifndef PDP_POLICIES_SCRATCH_ROWS_H
#define PDP_POLICIES_SCRATCH_ROWS_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/contracts.h"
#include "util/bytescan.h"

namespace pdp
{

/** One byte row per set: the cache's lent scratch rows or owned ones. */
class ScratchRows
{
  public:
    /**
     * Bind to the cache's scratch block (`scratch` non-null; rows
     * `stride` bytes apart), or allocate owned rows when it is null.
     * Bytes [0, ways) of every row start as `fill`.
     */
    void
    bind(uint8_t *scratch, size_t stride, uint32_t num_sets,
         uint32_t num_ways, uint8_t fill)
    {
        if (scratch) {
            base_ = scratch;
            stride_ = stride;
            vec16_ = true;
        } else {
            owned_.assign(static_cast<size_t>(num_sets) * num_ways +
                              kByteScanPadding,
                          0);
            base_ = owned_.data();
            stride_ = num_ways;
            vec16_ = false;
        }
        for (uint32_t set = 0; set < num_sets; ++set)
            std::fill_n(row(set), num_ways, fill);
    }

    uint8_t *row(uint32_t set) { return base_ + set * stride_; }
    const uint8_t *row(uint32_t set) const { return base_ + set * stride_; }

    /** Rows are 16 writable bytes: the kernels may run as one pass. */
    bool vec16() const { return vec16_; }

  private:
    uint8_t *base_ = nullptr;
    size_t stride_ = 0;
    bool vec16_ = false;
    std::vector<uint8_t> owned_;
};

/**
 * RRIP victim selection in one pass.  The classic loop — return the
 * first way whose RRPV equals `max`, else increment every RRPV of the
 * set (uint8 wrap-around included) and retry — stops after
 * k = min over ways of (max - rrpv) mod 256 rounds, at the first way
 * attaining that minimum.  This computes k directly, adds it to the
 * row, and returns the way: the same victim and the same row.
 */
PDP_HOT inline int
rripTakeVictim(uint8_t *row, uint32_t ways, uint8_t max, bool vec16)
{
#if defined(__SSE2__)
    if (vec16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(row));
        // k = 0, the common case: a distant way exists, nothing ages.
        const uint32_t at_max =
            static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                v, _mm_set1_epi8(static_cast<char>(max))))) &
            ((1u << ways) - 1);
        if (at_max)
            return std::countr_zero(at_max);
        // Rounds until each lane reaches max; lanes past `ways` read
        // 0xff, so they never undercut a real way.
        const __m128i lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
        const __m128i past = _mm_cmpgt_epi8(
            lane, _mm_set1_epi8(static_cast<char>(ways - 1)));
        const __m128i d = _mm_or_si128(
            _mm_sub_epi8(_mm_set1_epi8(static_cast<char>(max)), v), past);
        __m128i m = _mm_min_epu8(d, _mm_srli_si128(d, 8));
        m = _mm_min_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_min_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_min_epu8(m, _mm_srli_si128(m, 1));
        const __m128i k = _mm_set1_epi8(
            static_cast<char>(_mm_cvtsi128_si32(m)));
        const auto first = static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(d, k)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                         _mm_add_epi8(v, k));
        return std::countr_zero(first);
    }
#endif
    uint8_t k = 0xff;
    for (uint32_t w = 0; w < ways; ++w)
        k = std::min<uint8_t>(k, static_cast<uint8_t>(max - row[w]));
    int victim = 0;
    while (static_cast<uint8_t>(max - row[victim]) != k)
        ++victim;
    for (uint32_t w = 0; w < ways; ++w)
        row[w] = static_cast<uint8_t>(row[w] + k);
    return victim;
}

/** PDP aging: every way's remaining protecting distance drops by one,
 *  saturating at zero (unprotected). */
PDP_HOT inline void
rowDecrementSaturating(uint8_t *row, uint32_t ways, bool vec16)
{
#if defined(__SSE2__)
    if (vec16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(row));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                         _mm_subs_epu8(v, _mm_set1_epi8(1)));
        return;
    }
#endif
    for (uint32_t w = 0; w < ways; ++w)
        row[w] = static_cast<uint8_t>(row[w] - (row[w] != 0));
}

} // namespace pdp

#endif // PDP_POLICIES_SCRATCH_ROWS_H
