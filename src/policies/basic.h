/**
 * @file
 * True LRU replacement: the baseline of every comparison, and the base
 * class of the LRU-stack policies (LIP/BIP/DIP, SDP, UCP).
 */

#ifndef PDP_POLICIES_BASIC_H
#define PDP_POLICIES_BASIC_H

#include <bit>
#include <cstdint>

#include "check/contracts.h"
#include "policies/replacement_policy.h"
#include "policies/scratch_rows.h"
#include "util/bytescan.h"

namespace pdp
{

/**
 * True least-recently-used replacement.
 *
 * Recency is a per-set rank permutation, one byte per way: rank 0 is
 * MRU, rank ways-1 is LRU.  A promotion increments every rank below the
 * way's old rank (a ways-byte pass the compiler vectorizes) and victim
 * selection is a byte match against the LRU rank — one cache line of
 * state per 16-way set instead of the 8-byte recency stamps this
 * replaced, and no 64-bit min scan.
 *
 * The representation is order-isomorphic to the stamp scheme:
 * promote() == "assign a stamp newer than every other", demote() ==
 * "assign a stamp older than every other" (LIP/BIP's LRU insert), and
 * lruWay() == "smallest stamp".  Stamps were unique, so every victim
 * decision of the stamp-based subclasses (DIP, SDP, UCP) is preserved
 * decision for decision.
 *
 * promote/demote/lruWay are deliberately non-virtual and inline: the
 * cache substrate's fused path for exact LruPolicy instances calls them
 * through the access-path ops below, with no vtable.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "LRU";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    // Access-path ops of the fused path (see ReplacementPolicy): a miss
    // takes the LRU way and reinstalls it as MRU in one rank-row pass,
    // so the install that follows has nothing left to do.
    PDP_HOT void
    hitOp(const AccessContext &ctx, int way)
    {
        promote(ctx.set, way);
    }

    PDP_HOT int
    victimOp(const AccessContext &ctx)
    {
        return takeLruAndPromote(ctx.set);
    }

    PDP_HOT void
    insertOp(const AccessContext &ctx, int way, bool replaced)
    {
        if (!replaced)
            promote(ctx.set, way);
    }

    /** Make `way` the MRU line of its set (rank 0). */
    PDP_HOT void
    promote(uint32_t set, int way)
    {
        uint8_t *row = rows_.row(set);
        const uint8_t r = row[way];
#if defined(__SSE2__)
        if (rows_.vec16()) {
            // One 16-lane pass: +1 to every rank below r (cmplt yields
            // -1 there, and x - (-1) == x + 1).  Lanes past ways-1 may
            // accumulate junk; every reader masks to ways bits.
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row));
            const __m128i lt =
                _mm_cmplt_epi8(v, _mm_set1_epi8(static_cast<char>(r)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                             _mm_sub_epi8(v, lt));
            row[way] = 0;
            return;
        }
#endif
        for (uint32_t w = 0; w < numWays_; ++w)
            row[w] = static_cast<uint8_t>(row[w] + (row[w] < r));
        row[way] = 0;
    }

    /** Make `way` the LRU line of its set (rank ways-1); the "insert at
     *  LRU" of LIP/BIP.  Like the old "stamp older than every other",
     *  repeated demotions order newest-demoted first in eviction. */
    PDP_HOT void
    demote(uint32_t set, int way)
    {
        uint8_t *row = rows_.row(set);
        const uint8_t r = row[way];
#if defined(__SSE2__)
        if (rows_.vec16()) {
            // -1 to every rank above r (cmpgt yields -1 there).
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row));
            const __m128i gt =
                _mm_cmpgt_epi8(v, _mm_set1_epi8(static_cast<char>(r)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                             _mm_add_epi8(v, gt));
            row[way] = static_cast<uint8_t>(numWays_ - 1);
            return;
        }
#endif
        for (uint32_t w = 0; w < numWays_; ++w)
            row[w] = static_cast<uint8_t>(row[w] - (row[w] > r));
        row[way] = static_cast<uint8_t>(numWays_ - 1);
    }

    /** The way holding the LRU rank. */
    PDP_HOT int
    lruWay(uint32_t set) const
    {
        const uint64_t match = byteMatchMask(
            rows_.row(set), numWays_, static_cast<uint8_t>(numWays_ - 1));
        // The permutation invariant guarantees a match; fall back to way
        // 0 if it is ever violated (the auditor reports that separately).
        return match ? std::countr_zero(match) : 0;
    }

    /**
     * lruWay() followed by promote() of that way, in one pass over the
     * rank row: since the victim holds the maximum rank, the promotion
     * is an unconditional +1 of every rank.  Used by the substrate's
     * fused miss path, where the evicted way is always reinstalled as
     * MRU.
     */
    PDP_HOT int
    takeLruAndPromote(uint32_t set)
    {
        uint8_t *row = rows_.row(set);
#if defined(__SSE2__)
        if (rows_.vec16()) {
            // Find the LRU rank and age every way in one row load.
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row));
            const uint32_t match =
                static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                    v, _mm_set1_epi8(static_cast<char>(numWays_ - 1))))) &
                ((1u << numWays_) - 1);
            const int way =
                match ? std::countr_zero(match) : 0;
            _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                             _mm_sub_epi8(v, _mm_set1_epi8(-1)));
            row[way] = 0;
            return way;
        }
#endif
        const uint64_t match = byteMatchMask(
            row, numWays_, static_cast<uint8_t>(numWays_ - 1));
        const int way = match ? std::countr_zero(match) : 0;
        for (uint32_t w = 0; w < numWays_; ++w)
            row[w] = static_cast<uint8_t>(row[w] + 1);
        row[way] = 0;
        return way;
    }

  protected:
    /** Recency rank of one way: 0 = MRU .. ways-1 = LRU.  Subclasses
     *  compare ranks where they used to compare stamps (larger rank ==
     *  older). */
    uint8_t
    rankOf(uint32_t set, int way) const
    {
        return rows_.row(set)[way];
    }

  private:
    /** Rank rows: the cache's scratch rows when it lends them, so victim
     *  selection and promotion touch the line the lookup already loaded;
     *  policy-owned rows for wider caches. */
    ScratchRows rows_;
};

// Scratch-row contract (tools/pdplint, DESIGN.md "Enforced
// contracts"): LRU keeps its rank permutation in the cache's lent row.
PDP_SCRATCH_LAYOUT(LruPolicy, LruRankRow);

} // namespace pdp

#endif // PDP_POLICIES_BASIC_H
