#include "core/rd_sampler.h"

#include "check/check.h"
#include "util/bitutil.h"
#include "util/rng.h"

namespace pdp
{

RdSampler::RdSampler(const RdSamplerParams &params, uint32_t num_cache_sets)
    : params_(params)
{
    PDP_CHECK(params_.sampledSets >= 1 &&
                  params_.sampledSets <= num_cache_sets,
              "sampler covers ", params_.sampledSets, " of ",
              num_cache_sets, " sets");
    PDP_CHECK(params_.fifoEntries >= 1 && params_.insertionRate >= 1,
              "sampler FIFO ", params_.fifoEntries, " entries, rate ",
              params_.insertionRate);
    stride_ = FixedDivisor(num_cache_sets / params_.sampledSets);
    PDP_CHECK(stride_.value() >= 1, "sampler stride underflow");
    entries_ = FixedDivisor(params_.fifoEntries);
    rate_ = FixedDivisor(params_.insertionRate);
    reset();
}

void
RdSampler::reset()
{
    fifo_.assign(static_cast<size_t>(params_.sampledSets) *
                     params_.fifoEntries,
                 Entry{});
    head_.assign(params_.sampledSets, 0);
    accessCounter_.assign(params_.sampledSets, 0);
    ditherState_ = 0x9e3779b97f4a7c15ULL;
}

RdObservation
RdSampler::observe(uint32_t set, uint64_t line_addr)
{
    RdObservation obs;
    if (!isSampled(set))
        return obs;

    const uint32_t sset = stride_.div(set);
    // Hash before folding: synthetic addresses are far more structured
    // than real ones, and folding them directly would collapse the tag
    // space and inflate false FIFO matches.
    const uint16_t tag =
        static_cast<uint16_t>(foldXor(hashMix64(line_addr), 16));
    Entry *base = &fifo_[static_cast<size_t>(sset) * params_.fifoEntries];
    const uint32_t head = head_[sset];
    const uint16_t now = (accessCounter_[sset] =
                              (accessCounter_[sset] + 1) & 0x1ff);

    // Search from the most recent insertion backwards; the first match is
    // the entry inserted at this line's previous sampled access.
    for (uint32_t n = 0; n < params_.fifoEntries; ++n) {
        const uint32_t slot = entries_.mod(head + params_.fifoEntries - n);
        Entry &entry = base[slot];
        if (!entry.valid || entry.tag != tag)
            continue;
        // The paper's RD: number of accesses to the set between the two
        // accesses of the line, current access included.
        const uint32_t rd = (now + 512 - entry.stamp - 1) % 512 + 1;
        if (rd <= params_.dMax)
            obs.rd = rd;
        // Invalidate to avoid re-measuring a stale interval (Sec. 3).
        entry.valid = false;
        break;
    }

    // Dithered insertion: probability 1/M per access (see file header).
    const bool insert = params_.insertionRate <= 1 ||
        rate_.mod(splitmix64(ditherState_)) == 0;
    if (insert) {
        head_[sset] = entries_.mod(head + 1);
        base[head_[sset]] = Entry{tag, now, true};
        obs.inserted = true;
    }
    return obs;
}

uint64_t
RdSampler::storageBits() const
{
    return static_cast<uint64_t>(params_.sampledSets) * params_.bitsPerSet();
}

} // namespace pdp
