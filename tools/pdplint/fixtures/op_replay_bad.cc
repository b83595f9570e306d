// pdplint fixture: impure LLC op replay — allocation, locking or I/O
// inside the hot set-index/replay functions must be flagged, both
// directly and through in-TU callees reached from a hot root.
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

namespace fix
{

struct Geometry
{
    uint32_t setBits = 0;
    uint64_t setMask = 0;
};

// A set-index helper that builds a scratch vector per lookup: cold by
// itself, but reached from the hot replay root below.
static uint32_t
setThroughScratch(const Geometry &geo, uint64_t lineAddr)
{
    std::vector<uint64_t> scratch(2);                // EXPECT: hot-path
    scratch[0] = lineAddr >> geo.setBits;
    scratch[1] = lineAddr & geo.setMask;
    return static_cast<uint32_t>(scratch[0] ^ scratch[1]);
}

PDP_HOT uint32_t
setOfLogged(const Geometry &geo, uint64_t lineAddr)
{
    const uint32_t set = static_cast<uint32_t>(lineAddr & geo.setMask);
    std::printf("set %u\n", set);                    // EXPECT: hot-path
    return set;
}

PDP_HOT uint64_t
replayLocked(const Geometry &geo, std::mutex &m, const uint64_t *addrs,
             size_t n)
{
    std::lock_guard<std::mutex> g(m);                // EXPECT: hot-path
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i)
        acc += setThroughScratch(geo, addrs[i]);
    return acc;
}

} // namespace fix
