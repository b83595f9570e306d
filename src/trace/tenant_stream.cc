#include "trace/tenant_stream.h"

#include "check/check.h"

namespace pdp
{

TenantStreamGenerator::TenantStreamGenerator(std::string name, uint64_t seed,
                                             uint64_t footprint_lines,
                                             double zipf_alpha,
                                             uint64_t addr_base,
                                             uint32_t mean_gap,
                                             double write_frac)
    : name_(std::move(name)), seed_(seed),
      zipf_(ZipfSampler::shared(footprint_lines, zipf_alpha)),
      addrBase_(addr_base), meanGap_(mean_gap), writeFrac_(write_frac),
      rng_(seed)
{
    PDP_CHECK(meanGap_ >= 1, "tenant \"", name_, "\" mean gap ", meanGap_);
}

void
TenantStreamGenerator::refill()
{
    std::array<double, kBlock> u{};
    const uint64_t gapBound = meanGap_ > 1 ? 2 * meanGap_ - 1 : 1;
    for (unsigned i = 0; i < kBlock; ++i) {
        u[i] = rng_.uniform();
        block_[i].instrGap = 1 + static_cast<uint32_t>(rng_.below(gapBound));
        block_[i].isWrite = rng_.chance(writeFrac_);
    }
    std::array<uint32_t, kBlock> ranks{};
    zipf_->rankBlock(u, ranks);
    for (unsigned i = 0; i < kBlock; ++i) {
        const uint64_t rank = ranks[i];
        // Rank r maps to line addr_base + r: the hot head of the Zipf
        // distribution is a contiguous region, so it spreads across sets
        // via the low index bits like any dense working set.
        block_[i].lineAddr = addrBase_ + rank;
        // A small per-tenant PC pool keyed off the rank's locality class,
        // so PC-indexed predictors see stable signatures per popularity
        // band.
        block_[i].pc = hashMix64(seed_ ^ (rank >> 6) % 61);
    }
    pos_ = 0;
}

void
TenantStreamGenerator::reset()
{
    rng_.reseed(seed_);
    pos_ = kBlock;
}

} // namespace pdp
