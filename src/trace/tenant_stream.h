/**
 * @file
 * Open-loop tenant request streams for the cache-service mode
 * (src/service/).
 *
 * Two pieces, both purely Rng-driven so every run is bit-reproducible:
 *
 *  - PoissonProcess: a seeded exponential inter-arrival clock.  Each
 *    tenant owns one; the service scheduler merges tenants by next
 *    arrival time, which realizes an open-loop Poisson superposition —
 *    request rates are a property of the tenant, not of how fast the
 *    cache happens to serve it.
 *
 *  - TenantStreamGenerator: the per-request address mix — a Zipf(alpha)
 *    rank draw over the tenant's footprint mapped into a disjoint
 *    address window, a small hashed PC pool, a uniform instruction-gap
 *    model matching SyntheticGenerator's (mean gap preserved), and a
 *    write fraction.
 */

#ifndef PDP_TRACE_TENANT_STREAM_H
#define PDP_TRACE_TENANT_STREAM_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "trace/generator.h"
#include "trace/zipf.h"
#include "util/rng.h"

namespace pdp
{

/** Seeded exponential inter-arrival clock (open-loop Poisson source). */
class PoissonProcess
{
  public:
    /**
     * @param seed explicit Rng seed (seedFor(tenant) discipline)
     * @param rate arrivals per unit time; must be > 0
     */
    PoissonProcess(uint64_t seed, double rate)
        : rng_(seed), rate_(rate), nextArrival_(0.0)
    {
        advance();
    }

    /** Time of the pending arrival. */
    double nextArrival() const { return nextArrival_; }

    /** Consume the pending arrival and schedule the one after it. */
    void
    advance()
    {
        double u = rng_.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        nextArrival_ += -__builtin_log(u) / rate_;
    }

    double rate() const { return rate_; }

  private:
    Rng rng_;
    double rate_;
    double nextArrival_;
};

/**
 * Deterministic per-tenant request stream (Zipf mix over a disjoint
 * address window).
 *
 * Accesses are drawn kBlock at a time, each from the Rng in the same
 * order a one-at-a-time generator would use (the Zipf draw, then the
 * instruction gap, then the write coin), so the stream does not depend
 * on the block size; the block's ranks are then resolved together
 * (ZipfSampler::rankBlock) to overlap their table misses.
 */
class TenantStreamGenerator : public AccessGenerator
{
  public:
    static constexpr unsigned kBlock = ZipfSampler::kBlock;

    /**
     * @param name tenant name (stream identity; also the seed domain)
     * @param seed explicit Rng seed
     * @param footprint_lines distinct lines the tenant touches
     * @param zipf_alpha popularity skew (0 = uniform)
     * @param addr_base first line address of the tenant's window; the
     *        caller guarantees windows of live tenants are disjoint
     * @param mean_gap mean instructions between requests
     * @param write_frac fraction of requests that are writes
     *
     * The stream draws from ZipfSampler::shared(footprint_lines,
     * zipf_alpha), the one table of its shape in the process.
     */
    TenantStreamGenerator(std::string name, uint64_t seed,
                          uint64_t footprint_lines, double zipf_alpha,
                          uint64_t addr_base, uint32_t mean_gap,
                          double write_frac);

    Access
    next() final
    {
        if (pos_ == kBlock)
            refill();
        Access access = block_[pos_++];
        access.threadId = threadId_;
        return access;
    }

    /** The access the next call to next() returns, without consuming
     *  it (the thread id is stamped by next()). */
    const Access &
    peek()
    {
        if (pos_ == kBlock)
            refill();
        return block_[pos_];
    }

    void reset() override;
    const std::string &name() const override { return name_; }

    /** Thread (tenant slot) id stamped on every access. */
    void setThreadId(uint8_t tid) { threadId_ = tid; }

  private:
    /** Draw the next kBlock accesses. */
    void refill();

    std::string name_;
    uint64_t seed_;
    std::shared_ptr<const ZipfSampler> zipf_;
    uint64_t addrBase_;
    uint32_t meanGap_;
    double writeFrac_;

    Rng rng_;
    uint8_t threadId_ = 0;
    std::array<Access, kBlock> block_;
    /** Next unconsumed entry of block_; kBlock = drained. */
    unsigned pos_ = kBlock;
};

} // namespace pdp

#endif // PDP_TRACE_TENANT_STREAM_H
