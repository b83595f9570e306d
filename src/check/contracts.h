/**
 * @file
 * Machine-checked contract annotations enforced by tools/pdplint.
 *
 * Two contracts live here (the third pdplint family, determinism, needs
 * no source annotation — only `// pdplint: allow(...)` waivers):
 *
 *  * PDP_HOT marks a function as hot-path.  pdplint verifies that the
 *    function, and everything it transitively calls within the scanned
 *    file set, performs no heap allocation, locking, I/O or
 *    dynamic_cast.  On GCC/Clang the macro doubles as
 *    __attribute__((hot)) so the optimizer groups the marked bodies.
 *    A PDP_HOT on a declaration (e.g. an in-class member declaration)
 *    marks every same-named definition in the file set, so templates
 *    defined out of line are covered too.
 *
 *  * PDP_SCRATCH_LAYOUT(Policy, Struct) declares the scratch-row image
 *    of a replacement policy: the state it keeps in the 16-byte per-set
 *    scratch row the cache lends it (Cache::policyScratchBase()).  The
 *    macro emits compile-time asserts that the image fits the row and
 *    is trivially copyable (the row is raw bytes: no constructors run,
 *    memcpy semantics only), and specializes pdp::ScratchLayout so
 *    tests can reason about the declared image.  Policies whose per-set
 *    state is policy-owned (off-row) declare NoScratchState; pdplint
 *    requires a declaration for every class derived from
 *    ReplacementPolicy either way, and cross-checks raw scratch offset
 *    arithmetic against the row size.
 */

#ifndef PDP_CHECK_CONTRACTS_H
#define PDP_CHECK_CONTRACTS_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__GNUC__) || defined(__clang__)
#define PDP_HOT __attribute__((hot))
#else
#define PDP_HOT
#endif

namespace pdp
{

/** Bytes of per-set scratch the cache lends its policy; must equal
 *  Cache::kMaxFpWays (asserted where both are visible, in cache.h). */
inline constexpr std::size_t kPolicyScratchBytes = 16;

/** Scratch-row image of the LRU rank family: one recency rank byte per
 *  way, 0 = MRU .. ways-1 = LRU (see LruPolicy). */
struct LruRankRow
{
    std::uint8_t rank[kPolicyScratchBytes];
};

/** Scratch-row image of the RRIP family (SRRIP/BRRIP/DRRIP,
 *  TA-DRRIP): one re-reference prediction value byte per way, 0 = near
 *  .. max = distant (see RripPolicy). */
struct RripRow
{
    std::uint8_t rrpv[kPolicyScratchBytes];
};

/** Scratch-row image of PDP (static, dynamic and partitioned): one
 *  remaining-protecting-distance byte per way, 0 = unprotected (see
 *  PdpPolicy). */
struct RpdRow
{
    std::uint8_t rpd[kPolicyScratchBytes];
};

/** Scratch-row image of policies that keep every piece of per-set
 *  state in policy-owned storage and leave the lent row untouched. */
struct NoScratchState
{
};

/**
 * Declared scratch-row image of a policy; specialized by
 * PDP_SCRATCH_LAYOUT.  The primary template is intentionally left
 * undefined: using ScratchLayout<P> for an undeclared policy is a
 * compile error, mirroring pdplint's scratch-layout check.
 */
template <typename Policy> struct ScratchLayout;

/**
 * Declare `Struct` as the scratch-row image of `Policy`.
 *
 * Use at namespace pdp scope, after both types are complete:
 *
 *   PDP_SCRATCH_LAYOUT(LruPolicy, LruRankRow);
 *
 * Compile-fails when the image exceeds the 16-byte row or is not
 * trivially copyable (exercised by the pdplint_contracts_* ctest
 * compile-fail harness).
 */
#define PDP_SCRATCH_LAYOUT(Policy, Struct)                                 \
    template <> struct ScratchLayout<Policy>                               \
    {                                                                      \
        using type = Struct;                                               \
        static constexpr std::size_t size = sizeof(Struct);                \
        static_assert(sizeof(Struct) <= ::pdp::kPolicyScratchBytes,        \
                      #Policy ": scratch-row image " #Struct               \
                      " exceeds the 16-byte per-set scratch row");         \
        static_assert(std::is_trivially_copyable_v<Struct>,                \
                      #Policy ": scratch-row image " #Struct               \
                      " must be trivially copyable (the row is raw "      \
                      "bytes; no constructors ever run on it)");           \
    }

} // namespace pdp

#endif // PDP_CHECK_CONTRACTS_H
