#include "core/pdp_policy.h"

#include "cache/cache.h"
#include "check/invariant_auditor.h"
#include "util/bitutil.h"

namespace pdp
{

PdpPolicy::PdpPolicy(PdpParams params)
    : params_(params),
      model_(params.de, /*min_pd=*/1)
{
    PDP_CHECK(params_.ncBits >= 1 && params_.ncBits <= 8,
              "n_c = ", params_.ncBits, " outside the 1..8 RPD field range");
    PDP_CHECK(params_.dMax >= 1 && params_.counterStep >= 1,
              "d_max = ", params_.dMax, ", S_c = ", params_.counterStep);
    PDP_CHECK(params_.dynamic ||
                  (params_.staticPd >= 1 && params_.staticPd <= params_.dMax),
              "static PD ", params_.staticPd, " outside [1, d_max = ",
              params_.dMax, "]");
    maxRpd_ = static_cast<uint8_t>((1u << params_.ncBits) - 1);
    sd_ = std::max<uint32_t>(1, params_.dMax >> params_.ncBits);
    pd_ = params_.dynamic ? params_.initialPd : params_.staticPd;
    protect_.assign(1, protectValue(pd_));
    protectOne_ = protectValue(1);
    if (!params_.dynamic)
        name_ = params_.bypass ? "SPDP-B" : "SPDP-NB";
    else
        name_ = "PDP-" + std::to_string(params_.ncBits) +
                (params_.bypass ? "" : "-NB");
}

void
PdpPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    ReplacementPolicy::attach(cache, num_sets, num_ways);
    rows_.bind(cache.policyScratchBase(), Cache::policyScratchStride(),
               num_sets, num_ways, 0);
    sdCounter_.assign(num_sets, 0);
    if (params_.de == 0)
        model_ = HitRateModel(num_ways, 1);
    if (params_.dynamic) {
        sampler_ = std::make_unique<RdSampler>(params_.sampler, num_sets);
        rdd_ = std::make_unique<RdCounterArray>(params_.dMax,
                                                params_.counterStep);
    } else {
        // Static PDP still exposes a (never-updated) counter array so
        // diagnostics can query it uniformly.
        rdd_ = std::make_unique<RdCounterArray>(params_.dMax,
                                                params_.counterStep);
    }
}

uint8_t
PdpPolicy::protectValue(uint32_t pd) const
{
    // With a coarse distance step the per-set aging counter is free
    // running, so a line inserted just before a decrement boundary loses
    // up to one whole quantum; one extra quantum guarantees at least
    // `pd` accesses of protection (over-protection is benign under
    // bypass, under-protection poisons the protected slots).
    const uint32_t guard = sd_ > 1 ? 1 : 0;
    const uint32_t units = ceilDiv(pd, sd_) + guard;
    return static_cast<uint8_t>(std::min<uint32_t>(units, maxRpd_));
}

void
PdpPolicy::setThreadPds(const std::vector<uint32_t> &pds)
{
    protect_.resize(pds.size());
    for (size_t t = 0; t < pds.size(); ++t)
        protect_[t] = protectValue(pds[t]);
}

void
PdpPolicy::recordObservation(const AccessContext &ctx,
                             const RdObservation &obs)
{
    (void)ctx;
    if (obs.rd)
        rdd_->recordHit(*obs.rd);
    if (obs.inserted)
        rdd_->recordAccess();
}

void
PdpPolicy::recompute()
{
    if (rdd_->total() >= params_.minSamples &&
        rdd_->hitSum() >= params_.minHits) {
        const uint32_t best = model_.bestPd(*rdd_);
        if (best != 0) {
            pd_ = best;
            protect_[0] = protectValue(pd_);
        }
    }
    history_.push_back({accessCount_, pd_});
    rdd_->reset();
}

void
PdpPolicy::sample(const AccessContext &ctx)
{
    const RdObservation obs = sampler_->observe(ctx.set, ctx.lineAddr);
    if (obs.rd || obs.inserted)
        recordObservation(ctx, obs);
}

void
PdpPolicy::onHit(const AccessContext &ctx, int way)
{
    hitOp(ctx, way);
}

int
PdpPolicy::selectVictim(const AccessContext &ctx)
{
    return victimOp(ctx);
}

int
PdpPolicy::protectedVictim(uint32_t set) const
{
    // Inclusive / no-bypass: evict the youngest inserted line, falling
    // back to the youngest reused line (Sec. 2.2, Fig. 3c/3d).
    const uint8_t *base = rows_.row(set);
    int victim = -1;
    uint8_t best = 0;
    for (uint32_t way = 0; way < numWays_; ++way) {
        if (!cache_->isReused(set, way) && base[way] >= best) {
            best = base[way];
            victim = static_cast<int>(way);
        }
    }
    if (victim >= 0)
        return victim;
    for (uint32_t way = 0; way < numWays_; ++way) {
        if (base[way] >= best) {
            best = base[way];
            victim = static_cast<int>(way);
        }
    }
    return victim;
}

void
PdpPolicy::onInsert(const AccessContext &ctx, int way)
{
    insertOp(ctx, way, false);
}

void
PdpPolicy::telemetrySnapshot(telemetry::Snapshot &out) const
{
    out.setScalar("pd", pd_);
    out.setScalar("recomputes", static_cast<double>(history_.size()));
    if (!rdd_)
        return;
    out.setScalar("rdd_step", rdd_->step());
    out.setScalar("rdd_total", static_cast<double>(rdd_->total()));
    out.setScalar("rdd_hits", static_cast<double>(rdd_->hitSum()));
    // Mass the counter array could not place: sampled accesses whose RD
    // exceeded d_max or that never reused inside the window.  The
    // analytic model (src/model/) widens its prediction error bars by
    // this fraction, and a frozen array is refused outright there.
    const uint64_t tail = rdd_->total() > rdd_->hitSum()
        ? rdd_->total() - rdd_->hitSum() : 0;
    out.setScalar("rdd_tail", static_cast<double>(tail));
    out.setScalar("rdd_frozen", rdd_->frozen() ? 1.0 : 0.0);
    std::vector<double> buckets(rdd_->numBuckets());
    for (uint32_t k = 0; k < rdd_->numBuckets(); ++k)
        buckets[k] = static_cast<double>(rdd_->bucket(k));
    out.setSeries("rdd", std::move(buckets));
    // The E(d_p) curve only means something once the window has reuse
    // mass; an all-zero RDD would export a flat zero curve.
    if (rdd_->total() > 0 && rdd_->hitSum() > 0) {
        const auto curve = model_.curve(*rdd_);
        std::vector<double> dps(curve.size()), es(curve.size());
        for (size_t i = 0; i < curve.size(); ++i) {
            dps[i] = curve[i].dp;
            es[i] = curve[i].e;
        }
        out.setSeries("e_dp", std::move(dps));
        out.setSeries("e_curve", std::move(es));
    }
}

void
PdpPolicy::auditGlobal(InvariantReporter &reporter) const
{
    ReplacementPolicy::auditGlobal(reporter);

    reporter.check(pd_ >= 1 && pd_ <= params_.dMax, "pdp.pd_range",
                   name(), ": PD ", pd_, " outside [1, ", params_.dMax,
                   "]");

    if (rdd_) {
        const RdCounterArray &rdd = *rdd_;
        reporter.check(rdd.numBuckets() ==
                           (rdd.dMax() + rdd.step() - 1) / rdd.step(),
                       "rdd.geometry", name(), ": ", rdd.numBuckets(),
                       " buckets for d_max ", rdd.dMax(), " at step ",
                       rdd.step());
        for (uint32_t k = 0; k < rdd.numBuckets(); ++k)
            reporter.check(rdd.bucket(k) <= rdd.counterMax(),
                           "rdd.counter_range", name(), ": bucket ", k,
                           " holds ", rdd.bucket(k), " > counter max ",
                           rdd.counterMax());
        // Conservation: every recorded hit matches a FIFO entry that was
        // inserted (and counted in N_t) earlier.  Entries inserted before
        // the last reset() may still hit afterwards, so the bound carries
        // a slack of one full sampler capacity.
        const uint64_t slack = sampler_
            ? static_cast<uint64_t>(params_.sampler.sampledSets) *
                params_.sampler.fifoEntries
            : 0;
        reporter.check(rdd.hitSum() <= rdd.total() + slack,
                       "rdd.conservation", name(), ": ", rdd.hitSum(),
                       " recorded hits from only ", rdd.total(),
                       " sampled accesses (+", slack, " carry-over)");
    }

    for (size_t i = 1; i < history_.size(); ++i)
        reporter.check(history_[i - 1].accessCount <=
                           history_[i].accessCount,
                       "pdp.history", name(),
                       ": recompute clock ran backwards at entry ", i);
}

void
PdpPolicy::auditSet(uint32_t set, InvariantReporter &reporter) const
{
    const uint8_t *base = rows_.row(set);
    for (uint32_t way = 0; way < numWays_; ++way)
        reporter.check(base[way] <= maxRpd_, "pdp.rpd_range", name(),
                       ": set ", set, " way ", way, " RPD ",
                       static_cast<unsigned>(base[way]),
                       " > (1<<n_c)-1 = ",
                       static_cast<unsigned>(maxRpd_));
    reporter.check(sdCounter_[set] < sd_, "pdp.sd_counter", name(),
                   ": set ", set, " S_d counter ",
                   static_cast<unsigned>(sdCounter_[set]),
                   " reached the step ", sd_);
}

void
PdpPolicy::onBypass(const AccessContext &ctx)
{
    bypassOp(ctx);
}

std::unique_ptr<PdpPolicy>
makeSpdpNb(uint32_t static_pd)
{
    PdpParams params;
    params.dynamic = false;
    params.bypass = false;
    params.staticPd = static_pd;
    return std::make_unique<PdpPolicy>(params);
}

std::unique_ptr<PdpPolicy>
makeSpdpB(uint32_t static_pd)
{
    PdpParams params;
    params.dynamic = false;
    params.bypass = true;
    params.staticPd = static_pd;
    return std::make_unique<PdpPolicy>(params);
}

std::unique_ptr<PdpPolicy>
makeDynamicPdp(unsigned nc_bits, bool bypass)
{
    PdpParams params;
    params.ncBits = nc_bits;
    params.bypass = bypass;
    return std::make_unique<PdpPolicy>(params);
}

} // namespace pdp
