#include "prefetch/stream_prefetcher.h"

#include <cstdlib>

namespace pdp
{

StreamPrefetcher::StreamPrefetcher() : streams_(kStreams) {}

std::vector<uint64_t>
StreamPrefetcher::onDemand(uint64_t line_addr, bool was_miss)
{
    ++clock_;

    // Find a stream whose window covers this address.
    Stream *match = nullptr;
    for (Stream &stream : streams_) {
        if (!stream.valid)
            continue;
        const uint64_t delta = line_addr > stream.lastAddr
            ? line_addr - stream.lastAddr : stream.lastAddr - line_addr;
        if (delta <= kRegionLines) {
            match = &stream;
            break;
        }
    }

    std::vector<uint64_t> prefetches;
    if (match) {
        const int dir = line_addr > match->lastAddr
            ? 1 : (line_addr < match->lastAddr ? -1 : 0);
        if (dir != 0) {
            if (dir == match->direction)
                match->confidence = std::min(match->confidence + 1, 4);
            else {
                match->direction = dir;
                match->confidence = 1;
            }
        }
        match->lastAddr = line_addr;
        match->lruStamp = clock_;
        if (match->confidence >= 2) {
            for (uint32_t i = 0; i < kDegree; ++i) {
                const int64_t offset = static_cast<int64_t>(match->direction)
                    * static_cast<int64_t>(kDistance + i);
                prefetches.push_back(line_addr +
                                     static_cast<uint64_t>(offset));
            }
        }
        return prefetches;
    }

    // Allocate a stream on a miss, replacing the LRU entry.
    if (was_miss) {
        Stream *victim = &streams_[0];
        for (Stream &stream : streams_) {
            if (!stream.valid) {
                victim = &stream;
                break;
            }
            if (stream.lruStamp < victim->lruStamp)
                victim = &stream;
        }
        *victim = Stream{line_addr, 0, 0, true, clock_};
    }
    return prefetches;
}

} // namespace pdp
