/**
 * @file
 * Static configuration of one cache level.
 */

#ifndef PDP_CACHE_CACHE_CONFIG_H
#define PDP_CACHE_CACHE_CONFIG_H

#include <cstdint>
#include <string>

#include "util/bitutil.h"

namespace pdp
{

/** Geometry and behaviour switches of a cache. */
struct CacheConfig
{
    std::string label = "cache";
    uint64_t sizeBytes = 2 * 1024 * 1024;
    uint32_t ways = 16;
    uint32_t lineBytes = 64;
    /** Non-inclusive caches may honour policy bypass requests. */
    bool allowBypass = false;

    bool operator==(const CacheConfig &) const = default;

    uint32_t
    numSets() const
    {
        return static_cast<uint32_t>(sizeBytes / (static_cast<uint64_t>(ways)
                                                  * lineBytes));
    }

    uint64_t numLines() const { return static_cast<uint64_t>(numSets()) * ways; }

    bool
    valid() const
    {
        return sizeBytes > 0 && ways > 0 && lineBytes > 0 &&
               sizeBytes % (static_cast<uint64_t>(ways) * lineBytes) == 0 &&
               isPow2(numSets());
    }

    /** The paper's LLC: 2 MB, 16-way, 64 B lines (Table 1), scaled by
     *  `cores` for shared multi-core configurations. */
    static CacheConfig
    paperLlc(unsigned cores = 1, bool allow_bypass = true)
    {
        CacheConfig cfg;
        cfg.label = "LLC";
        cfg.sizeBytes = 2ull * 1024 * 1024 * cores;
        cfg.ways = 16;
        cfg.allowBypass = allow_bypass;
        return cfg;
    }

    /** The paper's L2: 256 KB, 8-way (Table 1). */
    static CacheConfig
    paperL2()
    {
        CacheConfig cfg;
        cfg.label = "L2";
        cfg.sizeBytes = 256 * 1024;
        cfg.ways = 8;
        cfg.allowBypass = false;
        return cfg;
    }
};

} // namespace pdp

#endif // PDP_CACHE_CACHE_CONFIG_H
