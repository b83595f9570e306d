/**
 * @file
 * PDP — the Protecting Distance based replacement and bypass Policy
 * (Sec. 2), in both its static (SPDP-NB / SPDP-B) and dynamic (PDP-n_c)
 * forms.
 *
 * Every line carries a remaining protecting distance (RPD), set to the
 * current PD on insertion and promotion.  Each access to a set decrements
 * the RPDs of all its lines (in units of the distance step S_d when the
 * per-line field is narrower than log2(d_max) bits).  A line is protected
 * while its RPD is nonzero.  Victims are chosen among unprotected lines;
 * when none exists, a bypass-enabled (non-inclusive) cache bypasses the
 * fill, while an inclusive cache evicts the inserted (never reused) line
 * with the highest RPD, falling back to the reused line with the highest
 * RPD.
 *
 * The dynamic form measures the RDD with the RD sampler, and every
 * `recomputeInterval` accesses sets PD = argmax E(d_p) via the hit-rate
 * model, then resets the counter array (Sec. 3).
 */

#ifndef PDP_CORE_PDP_POLICY_H
#define PDP_CORE_PDP_POLICY_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/contracts.h"
#include "core/hit_rate_model.h"
#include "core/rd_sampler.h"
#include "core/rdd.h"
#include "policies/replacement_policy.h"
#include "policies/scratch_rows.h"
#include "telemetry/source.h"

namespace pdp
{

/** Configuration of a PDP cache policy. */
struct PdpParams
{
    /** Dynamic PD recomputation (false = static PD). */
    bool dynamic = true;
    /** The PD used when dynamic == false. */
    uint32_t staticPd = 64;
    /** Allow bypass (requires a non-inclusive cache). */
    bool bypass = true;
    /** Bits per line for the RPD field (n_c); sets S_d = d_max / 2^n_c. */
    unsigned ncBits = 8;
    /** Maximum protecting distance d_max. */
    uint32_t dMax = 256;
    /** Counter-array step S_c. */
    uint32_t counterStep = 4;
    /** Accesses between PD recomputations (paper: 512K). */
    uint64_t recomputeInterval = 512 * 1024;
    /** First recomputation happens early so short windows (and fresh
     *  program phases) get a measured PD quickly. */
    uint64_t firstRecompute = 192 * 1024;
    /** Accesses ignored by the sampler at startup, so the RDD is not
     *  polluted by cold-cache compulsory traffic from the level above. */
    uint64_t samplerWarmup = 64 * 1024;
    /** RD sampler configuration. */
    RdSamplerParams sampler{};
    /** Eviction slack d_e; 0 selects the associativity W. */
    uint32_t de = 0;
    /** PD used before the first recomputation. */
    uint32_t initialPd = 128;
    /** Minimum sampled accesses (N_t) for a recomputation to be trusted;
     *  below this the previous PD is kept. */
    uint32_t minSamples = 192;
    /** Minimum recorded reuse hits for a recomputation to be trusted —
     *  a window shorter than the dominant reuse lap has an empty RDD. */
    uint32_t minHits = 64;
    /** Sec. 6.3 variant: insert missed lines with PD = 1. */
    bool insertWithPdOne = false;

    /** Sec. 6.5 prefetch handling. */
    enum class PrefetchMode { Normal, InsertPdOne, Bypass };
    PrefetchMode prefetchMode = PrefetchMode::Normal;
};

/** A PD recomputation event (for Fig. 11c's PD-over-time series). */
struct PdSample
{
    uint64_t accessCount;
    uint32_t pd;
};

/**
 * The PDP replacement/bypass policy.
 *
 * The RPDs are one byte per way in the cache's scratch row (policy rows
 * beyond 16 ways), so the per-access work of Sec. 2 — age every line,
 * then evict the first unprotected one or bypass — is one saturating
 * subtract and one byte match over the set-metadata line the tag probe
 * loaded.  The RPD a line is protected with is derived from its PD only
 * when a PD changes, never per access.
 */
class PdpPolicy : public ReplacementPolicy, public telemetry::Source
{
  public:
    explicit PdpPolicy(PdpParams params = PdpParams());

    const std::string &name() const override { return name_; }
    bool usesBypass() const override { return params_.bypass; }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;
    void onBypass(const AccessContext &ctx) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    // Access-path ops of the fused path; the virtual hooks run the same.

    /** Promotion: re-protect, then age the set (including this line). */
    PDP_HOT void
    hitOp(const AccessContext &ctx, int way)
    {
        rows_.row(ctx.set)[way] = protectFor(ctx);
        step(ctx);
    }

    PDP_HOT int
    victimOp(const AccessContext &ctx)
    {
        // Prefetch bypass variant: never allocate prefetches.
        if (ctx.isPrefetch &&
            params_.prefetchMode == PdpParams::PrefetchMode::Bypass &&
            params_.bypass)
            return kBypass;
        // An unprotected line, if present, is the victim.
        const uint64_t unprotected =
            byteMatchMask(rows_.row(ctx.set), numWays_, 0);
        if (unprotected)
            return std::countr_zero(unprotected);
        return params_.bypass ? kBypass : protectedVictim(ctx.set);
    }

    PDP_HOT void
    insertOp(const AccessContext &ctx, int way, bool replaced)
    {
        (void)replaced;
        // Sec. 6.3 and Sec. 6.5 variants insert with PD = 1.
        const bool pd_one = ctx.isPrefetch
            ? params_.prefetchMode == PdpParams::PrefetchMode::InsertPdOne
            : params_.insertWithPdOne;
        rows_.row(ctx.set)[way] = pd_one ? protectOne_ : protectFor(ctx);
        step(ctx);
    }

    /** A bypass still counts as an access to the set (Sec. 3: the S_d
     *  counter counts bypasses). */
    PDP_HOT void bypassOp(const AccessContext &ctx) { step(ctx); }

    /** Epoch telemetry: PD, RDD histogram and the E(d_p) curve. */
    void telemetrySnapshot(telemetry::Snapshot &out) const override;

    /** Current protecting distance. */
    uint32_t pd() const { return pd_; }

    /** History of recomputed PDs (dynamic mode). */
    const std::vector<PdSample> &pdHistory() const { return history_; }

    const PdpParams &params() const { return params_; }

    // --- fault-injection hooks for the checker tests ---
    uint8_t
    debugRpd(uint32_t set, int way) const
    {
        return rows_.row(set)[way];
    }
    void
    debugSetRpd(uint32_t set, int way, uint8_t value)
    {
        rows_.row(set)[way] = value;
    }
    RdCounterArray &debugCounterArray() { return *rdd_; }

  protected:
    /** Route one sampler observation into a counter array. */
    virtual void recordObservation(const AccessContext &ctx,
                                   const RdObservation &obs);

    /** Recompute the PD(s) from the collected RDD(s). */
    virtual void recompute();

    /** RPD field value protecting for `pd` accesses (clamped to n_c). */
    uint8_t protectValue(uint32_t pd) const;

    /** Derive the protect values of the thread slots from their PDs
     *  (`pds[t]` is thread t's PD); the partitioned subclass calls it
     *  whenever its PD vector changes. */
    void setThreadPds(const std::vector<uint32_t> &pds);

    /** RPD a line of this access is protected with: its thread slot's
     *  (threads past the last use slot 0, as does every thread of the
     *  single-PD policy). */
    uint8_t
    protectFor(const AccessContext &ctx) const
    {
        return protect_[ctx.threadId < protect_.size() ? ctx.threadId : 0];
    }

    /** Per-access bookkeeping: RPD aging, sampling, recompute clock. */
    PDP_HOT void
    step(const AccessContext &ctx)
    {
        // RPD aging follows the demand stream only: the sampler measures
        // reuse distances over demand accesses, so writebacks and
        // prefetch fills must not age lines or the enforced protection
        // would fall short of the measured distances.
        if (ctx.isWriteback || ctx.isPrefetch)
            return;
        tick(ctx.set);
        if (!params_.dynamic)
            return;
        ++accessCount_;
        if (accessCount_ <= params_.samplerWarmup)
            return;
        if (sampler_->isSampled(ctx.set))
            sample(ctx);
        const uint64_t next = history_.empty()
            ? params_.firstRecompute
            : history_.back().accessCount + params_.recomputeInterval;
        if (accessCount_ >= next)
            recompute();
    }

    PdpParams params_;
    /** Cached display name; subclasses overwrite in their constructor. */
    std::string name_;
    uint32_t sd_ = 1;       //!< distance step S_d
    uint8_t maxRpd_ = 255;  //!< 2^n_c - 1
    uint32_t pd_ = 64;
    uint64_t accessCount_ = 0;
    std::vector<PdSample> history_;

    std::unique_ptr<RdSampler> sampler_;
    std::unique_ptr<RdCounterArray> rdd_;
    HitRateModel model_;

  private:
    /** Age the set: one RPD decrement every S_d accesses. */
    PDP_HOT void
    tick(uint32_t set)
    {
        if (sd_ > 1) {
            if (++sdCounter_[set] < sd_)
                return;
            sdCounter_[set] = 0;
        }
        rowDecrementSaturating(rows_.row(set), numWays_, rows_.vec16());
    }

    /** Feed a sampled set's access to the RD sampler. */
    void sample(const AccessContext &ctx);

    /** Inclusive (no-bypass) victim when every line is protected. */
    int protectedVictim(uint32_t set) const;

    ScratchRows rows_;
    std::vector<uint8_t> sdCounter_;
    /** protectValue() of each thread slot's PD (one slot unless a
     *  subclass sets per-thread PDs), and of PD 1. */
    std::vector<uint8_t> protect_;
    uint8_t protectOne_ = 0;
};

/** Factory helpers mirroring the paper's policy names. */
std::unique_ptr<PdpPolicy> makeSpdpNb(uint32_t static_pd);
std::unique_ptr<PdpPolicy> makeSpdpB(uint32_t static_pd);
std::unique_ptr<PdpPolicy> makeDynamicPdp(unsigned nc_bits,
                                          bool bypass = true);

// One remaining-PD byte per way (n_c bits per line in hardware) in the
// cache's lent row.
PDP_SCRATCH_LAYOUT(PdpPolicy, RpdRow);

} // namespace pdp

#endif // PDP_CORE_PDP_POLICY_H
