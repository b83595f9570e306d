/**
 * @file
 * A simple stream prefetcher (Sec. 6.5's "simple stream prefetcher").
 *
 * Tracks a small table of streams keyed by line-address region.  A stream
 * is allocated on an L2 demand miss; two further misses in ascending
 * (or descending) order within the region confirm the direction, after
 * which every demand access to the stream issues kDegree prefetches
 * kDistance lines ahead of the demand address.
 */

#ifndef PDP_PREFETCH_STREAM_PREFETCHER_H
#define PDP_PREFETCH_STREAM_PREFETCHER_H

#include <cstdint>
#include <vector>

namespace pdp
{

/** Stream prefetcher with per-stream direction confirmation. */
class StreamPrefetcher
{
  public:
    static constexpr uint32_t kStreams = 16;     //!< tracked streams
    static constexpr uint32_t kDegree = 2;       //!< prefetches per trigger
    static constexpr uint32_t kDistance = 4;     //!< lines ahead of the demand
    static constexpr uint64_t kRegionLines = 64; //!< stream window size

    StreamPrefetcher();

    /**
     * Feed a demand access; returns the line addresses to prefetch.
     *
     * @param line_addr demand line address
     * @param was_miss true if the demand missed the L2
     */
    std::vector<uint64_t> onDemand(uint64_t line_addr, bool was_miss);

  private:
    struct Stream
    {
        uint64_t lastAddr = 0;
        int direction = 0;   //!< -1, 0 (untrained), +1
        int confidence = 0;
        bool valid = false;
        uint64_t lruStamp = 0;
    };

    std::vector<Stream> streams_;
    uint64_t clock_ = 0;
};

} // namespace pdp

#endif // PDP_PREFETCH_STREAM_PREFETCHER_H
