// pdplint fixture: LLC op capture and replay in the style of
// src/sim/llc_stream.h and the lockstep lanes — hot set-index
// arithmetic (mask/shift of a line address) is pure and must lint
// clean, including the hot replay loop that calls it transitively.
// Expected findings: none.
#include <cstdint>
#include <vector>

namespace fix
{

struct Geometry
{
    uint32_t setBits = 0;
    uint64_t setMask = 0;

    PDP_HOT uint32_t
    setOf(uint64_t lineAddr) const
    {
        return static_cast<uint32_t>(lineAddr & setMask);
    }

    PDP_HOT uint64_t
    tagOf(uint64_t lineAddr) const
    {
        return lineAddr >> setBits;
    }
};

struct Op
{
    uint64_t lineAddr = 0;
    uint32_t set = 0;
    int32_t accessIdx = -1;
};

// Cold: building the op buffer may allocate.
void
fill(std::vector<Op> &ops, const Geometry &geo, const uint64_t *addrs,
     size_t n)
{
    ops.clear();
    for (size_t i = 0; i < n; ++i) {
        Op op;
        op.lineAddr = addrs[i];
        op.set = geo.setOf(addrs[i]);
        op.accessIdx = static_cast<int32_t>(i);
        ops.push_back(op);
    }
}

// Hot replay: set arithmetic + in-place writes only, no allocation.
PDP_HOT uint64_t
replayLane(const std::vector<Op> &ops, const Geometry &geo,
           uint64_t *tags, uint8_t *levels)
{
    uint64_t replayed = 0;
    for (const Op &op : ops) {
        tags[op.set] = geo.tagOf(op.lineAddr);
        if (op.accessIdx >= 0)
            levels[op.accessIdx] = 1;
        ++replayed;
    }
    return replayed;
}

} // namespace fix
