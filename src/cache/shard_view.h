/**
 * @file
 * A one-shard plan, kept only so that perfbench/'s call
 * `LlcStreamFrontEnd(hierarchy, ShardPlan::make(llc, 1))` still
 * compiles: every LLC op carries its full set index (sim/llc_stream.h).
 * The next change to perfbench/ drops that argument and deletes this
 * header.
 */

#ifndef PDP_CACHE_SHARD_VIEW_H
#define PDP_CACHE_SHARD_VIEW_H

#include "cache/cache_config.h"
#include "check/check.h"

namespace pdp
{

/** The only plan there is: the whole LLC as one shard. */
struct ShardPlan
{
    /** The one-shard plan; `requested` above 1 is a CheckFailure. */
    static ShardPlan
    make(const CacheConfig &llc, unsigned requested)
    {
        PDP_CHECK(requested <= 1, "the LLC \"", llc.label,
                  "\" always runs as one shard, not ", requested);
        return {};
    }
};

} // namespace pdp

#endif // PDP_CACHE_SHARD_VIEW_H
