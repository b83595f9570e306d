#include "core/rd_profiler.h"

namespace pdp
{

RdProfiler::RdProfiler(uint32_t num_sets, uint32_t d_max)
    : dMax_(d_max), sets_(num_sets), histogram_(d_max),
      pairHistogram_(d_max)
{
}

void
RdProfiler::prune(SetState &state)
{
    // Entries older than d_max can only produce overflow observations;
    // drop them to bound memory on streaming workloads.
    if (state.lastAccess.size() < 4ull * dMax_)
        return;
    // pdplint: allow(unordered-iter) order-independent sweep: each
    // entry is dropped or kept on its own (counter, dMax_) predicate,
    // nothing is emitted, and the surviving map contents are identical
    // whatever order the buckets are walked in.  No emission path
    // iterates lastAccess (the RDD histogram is the only output).
    for (auto it = state.lastAccess.begin(); it != state.lastAccess.end();) {
        if (state.counter - it->second.lastAccess > dMax_)
            it = state.lastAccess.erase(it);
        else
            ++it;
    }
}

void
RdProfiler::observe(uint32_t set, uint64_t line_addr)
{
    SetState &state = sets_[set];
    ++state.counter;
    ++accesses_;

    auto it = state.lastAccess.find(line_addr);
    if (it != state.lastAccess.end()) {
        const uint64_t rd = state.counter - it->second.lastAccess;
        if (rd >= 1 && rd <= dMax_) {
            histogram_.add(static_cast<size_t>(rd - 1));
            const uint32_t prev = it->second.prevDist;
            if (prev >= 1 && prev <= dMax_) {
                const uint64_t mx = rd > prev ? rd : prev;
                pairHistogram_.add(static_cast<size_t>(mx - 1));
            }
            it->second.prevDist = static_cast<uint32_t>(rd);
        } else {
            histogram_.add(dMax_); // overflow bucket
            it->second.prevDist = dMax_ + 1;
        }
        it->second.lastAccess = state.counter;
    } else {
        state.lastAccess.emplace(line_addr, LineState{state.counter, 0});
        prune(state);
    }
}

double
RdProfiler::coveredFraction() const
{
    if (accesses_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (size_t d = 0; d < histogram_.size(); ++d)
        covered += histogram_.at(d);
    return static_cast<double>(covered) / static_cast<double>(accesses_);
}

uint32_t
RdProfiler::peakRd() const
{
    uint32_t peak = 1;
    uint64_t best = 0;
    for (size_t d = 0; d < histogram_.size(); ++d) {
        if (histogram_.at(d) > best) {
            best = histogram_.at(d);
            peak = static_cast<uint32_t>(d + 1);
        }
    }
    return peak;
}

void
RdProfiler::reset()
{
    for (auto &state : sets_)
        state = SetState{};
    histogram_.reset();
    pairHistogram_.reset();
    accesses_ = 0;
}

void
RdProfiler::clearCounts()
{
    histogram_.reset();
    pairHistogram_.reset();
    accesses_ = 0;
}

} // namespace pdp
