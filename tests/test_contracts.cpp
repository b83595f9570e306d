// Positive coverage for the scratch-row contract (check/contracts.h):
// every concrete policy declares a PDP_SCRATCH_LAYOUT whose row image
// fits the cache's lent 16-byte per-set scratch block.  The negative
// side (oversized / non-trivially-copyable images must not compile)
// lives in tests/contracts/ behind the pdplint_contracts_*_rejected
// ctest entries.
#include <type_traits>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "check/contracts.h"
#include "core/pdp_policy.h"
#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ta_drrip.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "policies/eelru.h"
#include "policies/rrip.h"
#include "policies/sdp.h"

namespace pdp
{
namespace
{

template <typename Policy>
constexpr bool
layoutHolds()
{
    using Layout = ScratchLayout<Policy>;
    static_assert(Layout::size == sizeof(typename Layout::type),
                  "size member must mirror sizeof(type)");
    static_assert(Layout::size <= kPolicyScratchBytes,
                  "row image must fit the lent scratch block");
    static_assert(std::is_trivially_copyable_v<typename Layout::type>,
                  "row image must be trivially copyable");
    return true;
}

// Every concrete policy in src/policies + src/partition + src/core.
static_assert(layoutHolds<LruPolicy>());
static_assert(layoutHolds<InsertionLruPolicy>());
static_assert(layoutHolds<SdpPolicy>());
static_assert(layoutHolds<EelruPolicy>());
static_assert(layoutHolds<RripPolicy>());
static_assert(layoutHolds<PdpPolicy>());
static_assert(layoutHolds<UcpPolicy>());
static_assert(layoutHolds<TaDrripPolicy>());
static_assert(layoutHolds<PippPolicy>());
static_assert(layoutHolds<PdpPartitionPolicy>());

// The recency family stores per-way ranks in the lent row, the RRIP
// family its RRPVs and the PDP family its remaining protecting
// distances; everyone else keeps per-set state policy-owned and
// declares NoScratchState.
static_assert(std::is_same_v<ScratchLayout<LruPolicy>::type, LruRankRow>);
static_assert(
    std::is_same_v<ScratchLayout<InsertionLruPolicy>::type, LruRankRow>);
static_assert(std::is_same_v<ScratchLayout<SdpPolicy>::type, LruRankRow>);
static_assert(std::is_same_v<ScratchLayout<UcpPolicy>::type, LruRankRow>);
static_assert(std::is_same_v<ScratchLayout<RripPolicy>::type, RripRow>);
static_assert(std::is_same_v<ScratchLayout<TaDrripPolicy>::type, RripRow>);
static_assert(std::is_same_v<ScratchLayout<PdpPolicy>::type, RpdRow>);
static_assert(
    std::is_same_v<ScratchLayout<PdpPartitionPolicy>::type, RpdRow>);
static_assert(
    std::is_same_v<ScratchLayout<EelruPolicy>::type, NoScratchState>);
static_assert(
    std::is_same_v<ScratchLayout<PippPolicy>::type, NoScratchState>);

// The one-byte-per-way images use the whole block (16 ways); the empty
// image stays empty.
static_assert(sizeof(LruRankRow) == kPolicyScratchBytes);
static_assert(sizeof(RripRow) == kPolicyScratchBytes);
static_assert(sizeof(RpdRow) == kPolicyScratchBytes);
static_assert(std::is_empty_v<NoScratchState>);

TEST(ScratchContracts, RowImagesFitTheLentRow)
{
    // The static_asserts above are the real gate; restate the bound at
    // runtime so a failure would name the policy in ctest output.
    EXPECT_LE(ScratchLayout<LruPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<SdpPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<UcpPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<RripPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<TaDrripPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<PdpPolicy>::size, kPolicyScratchBytes);
    EXPECT_LE(ScratchLayout<PdpPartitionPolicy>::size, kPolicyScratchBytes);
    EXPECT_EQ(ScratchLayout<EelruPolicy>::size, sizeof(NoScratchState));
    EXPECT_EQ(ScratchLayout<PippPolicy>::size, sizeof(NoScratchState));
}

TEST(ScratchContracts, RowResidentPoliciesUseTheLentRow)
{
    // The declared images are true: at 16 ways each row-resident
    // policy's per-way byte lives at its way's offset in the cache's
    // scratch row, and policy writes land there.
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 16 * 64;
    cfg.ways = 16;
    auto rrip = std::make_unique<RripPolicy>(RripPolicy::Mode::Srrip);
    RripPolicy *rrip_raw = rrip.get();
    Cache rrip_cache(cfg, std::move(rrip));
    rrip_raw->debugSetRrpv(3, 5, 2);
    EXPECT_EQ(rrip_cache.policyScratchBase()[3 * Cache::policyScratchStride() +
                                             5],
              2);

    auto pdp = std::make_unique<PdpPolicy>();
    PdpPolicy *pdp_raw = pdp.get();
    Cache pdp_cache(cfg, std::move(pdp));
    pdp_raw->debugSetRpd(6, 15, 9);
    EXPECT_EQ(pdp_cache.policyScratchBase()[6 * Cache::policyScratchStride() +
                                            15],
              9);
}

TEST(ScratchContracts, CacheLendsAFullRowPerSet)
{
    // Scratch rows live inside the 64-byte SetState lines, one full
    // kPolicyScratchBytes block per set.
    EXPECT_GE(Cache::policyScratchStride(), kPolicyScratchBytes);
    EXPECT_EQ(Cache::policyScratchStride() % 64u, 0u);
}

} // namespace
} // namespace pdp
