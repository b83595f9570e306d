#include "partition/pdp_partition.h"

#include <algorithm>

#include "check/check.h"
#include "check/invariant_auditor.h"

namespace pdp
{

namespace
{

PdpParams
partitionParams(unsigned nc_bits)
{
    PdpParams params;
    params.dynamic = true;
    params.bypass = true;
    params.ncBits = nc_bits;
    params.counterStep = 16; // paper: S_c = 16 for the multi-core policy
    return params;
}

} // namespace

PdpPartitionPolicy::PdpPartitionPolicy(unsigned num_threads,
                                       unsigned nc_bits,
                                       unsigned peaks_per_thread)
    : PdpPolicy(partitionParams(nc_bits)), numThreads_(num_threads),
      peaksPerThread_(peaks_per_thread)
{
    name_ = "PDP-" + std::to_string(params_.ncBits) + "-part";
}

void
PdpPartitionPolicy::attach(Cache &cache, uint32_t num_sets,
                           uint32_t num_ways)
{
    // Keep the sampled-set fraction (1/64 of sets) constant as the shared
    // LLC grows; the paper's fixed 32-FIFO sampler converges over runs
    // ~100x longer than this simulator's budget.
    params_.sampler.sampledSets = std::max<uint32_t>(32, num_sets / 16);
    PdpPolicy::attach(cache, num_sets, num_ways);
    perThreadRdd_.clear();
    for (unsigned t = 0; t < numThreads_; ++t)
        perThreadRdd_.emplace_back(params_.dMax, params_.counterStep);
    pds_.assign(numThreads_, params_.initialPd);
    setThreadPds(pds_);
    active_.assign(numThreads_, 1);
}

void
PdpPartitionPolicy::beginTenantMode()
{
    active_.assign(numThreads_, 0);
    // Unowned slots keep minimal protection: any line a future tenant
    // inherits from the warmup mix ages out at the streaming rate.
    pds_.assign(numThreads_, params_.counterStep);
    setThreadPds(pds_);
}

void
PdpPartitionPolicy::tenantJoin(unsigned slot)
{
    PDP_CHECK(slot < numThreads_ && !active_[slot],
              name(), ": tenantJoin on active slot ", slot);
    active_[slot] = 1;
    perThreadRdd_[slot] = RdCounterArray(params_.dMax, params_.counterStep);
    pds_[slot] = params_.initialPd;
    solvePartition();
}

void
PdpPartitionPolicy::tenantLeave(unsigned slot)
{
    PDP_CHECK(slot < numThreads_ && active_[slot],
              name(), ": tenantLeave on inactive slot ", slot);
    active_[slot] = 0;
    perThreadRdd_[slot] =
        RdCounterArray(params_.dMax, params_.counterStep);
    // Minimal protection evicts the leaver's residue at streaming speed.
    pds_[slot] = params_.counterStep;
    solvePartition();
}

unsigned
PdpPartitionPolicy::activeTenants() const
{
    unsigned n = 0;
    for (uint8_t a : active_)
        n += a;
    return n;
}

std::vector<double>
PdpPartitionPolicy::tenantQuotas() const
{
    // The PD partition is soft: the policy's target share of the cache
    // is each thread's model occupancy at its current PD, normalized
    // over active slots.
    std::vector<double> quotas(numThreads_, 0.0);
    double total = 0.0;
    for (unsigned t = 0; t < numThreads_; ++t) {
        if (!active_[t])
            continue;
        quotas[t] = static_cast<double>(
            model_.occupancy(perThreadRdd_[t], pds_[t]));
        total += quotas[t];
    }
    const unsigned live = activeTenants();
    if (live == 0)
        return quotas;
    for (unsigned t = 0; t < numThreads_; ++t) {
        if (!active_[t])
            continue;
        // No signal yet (fresh windows): fall back to equal shares.
        quotas[t] = total > 0.0 ? quotas[t] / total : 1.0 / live;
    }
    return quotas;
}

void
PdpPartitionPolicy::recordObservation(const AccessContext &ctx,
                                      const RdObservation &obs)
{
    const unsigned t = ctx.threadId < numThreads_ ? ctx.threadId : 0;
    if (obs.rd)
        perThreadRdd_[t].recordHit(*obs.rd);
    if (obs.inserted)
        perThreadRdd_[t].recordAccess();
}

double
PdpPartitionPolicy::evaluateEm(const std::vector<uint32_t> &pds,
                               const std::vector<unsigned> &threads) const
{
    uint64_t hits = 0;
    uint64_t occupancy = 0;
    for (unsigned t : threads) {
        hits += HitRateModel::hits(perThreadRdd_[t], pds[t]);
        occupancy += model_.occupancy(perThreadRdd_[t], pds[t]);
    }
    if (occupancy == 0)
        return 0.0;
    return static_cast<double>(hits) / static_cast<double>(occupancy);
}

void
PdpPartitionPolicy::solvePartition()
{
    // Per-thread peak candidates and their best single-thread E.
    struct ThreadPeaks
    {
        unsigned thread;
        std::vector<EPoint> peaks;
        double bestE;
    };
    std::vector<ThreadPeaks> candidates;
    for (unsigned t = 0; t < numThreads_; ++t) {
        if (!active_[t])
            continue;
        if (perThreadRdd_[t].total() < params_.minSamples) {
            // Not enough signal this interval; keep the thread's PD.
            continue;
        }
        if (perThreadRdd_[t].hitSum() <
            std::max<uint32_t>(4, params_.minHits / numThreads_)) {
            // Plenty of samples but essentially no reuse below d_max:
            // a streaming thread.  Minimal protection shrinks its share
            // (the paper's partitioning lever).
            pds_[t] = params_.counterStep;
            continue;
        }
        auto peaks = model_.peaks(perThreadRdd_[t], peaksPerThread_);
        // Extend each peak to its plateau edge, as in the single-core
        // solver, by re-running bestPd on the thread alone.
        const uint32_t solo = model_.bestPd(perThreadRdd_[t]);
        if (solo != 0)
            peaks.push_back({solo, model_.evaluate(perThreadRdd_[t], solo)});
        // Always offer the minimal PD so the E_m search can shrink a
        // thread's partition for the common good (the paper's key lever).
        peaks.push_back({params_.counterStep,
                         model_.evaluate(perThreadRdd_[t],
                                         params_.counterStep)});
        if (peaks.empty()) {
            // Streaming thread: minimal protection shrinks its share.
            pds_[t] = params_.counterStep;
            continue;
        }
        candidates.push_back({t, std::move(peaks), 0.0});
        candidates.back().bestE = candidates.back().peaks.front().e;
    }

    // Greedy vector construction, highest single-thread E first.
    std::sort(candidates.begin(), candidates.end(),
              [](const ThreadPeaks &a, const ThreadPeaks &b) {
                  return a.bestE > b.bestE;
              });
    std::vector<unsigned> placed;
    std::vector<uint32_t> trial = pds_;
    lastGreedy_.clear();
    for (const ThreadPeaks &cand : candidates) {
        placed.push_back(cand.thread);
        double best_em = -1.0;
        uint32_t best_pd = cand.peaks.front().dp;
        for (const EPoint &peak : cand.peaks) {
            trial[cand.thread] = peak.dp;
            const double em = evaluateEm(trial, placed);
            if (em > best_em) {
                best_em = em;
                best_pd = peak.dp;
            }
        }
        trial[cand.thread] = best_pd;
        // The greedy partial ordering the auditor re-verifies: the pick,
        // re-evaluated independently, dominates every candidate peak of
        // this thread.
        const double chosen_em = evaluateEm(trial, placed);
        lastGreedy_.push_back({cand.thread, best_pd, chosen_em, best_em});
    }
    pds_ = trial;
    setThreadPds(pds_);

    // Keep the single-core bookkeeping (history uses the max PD so the
    // Fig. 11-style traces remain meaningful).
    uint32_t max_pd = 0;
    for (uint32_t pd : pds_)
        max_pd = std::max(max_pd, pd);
    pd_ = max_pd;
}

void
PdpPartitionPolicy::recompute()
{
    solvePartition();
    history_.push_back({accessCount_, pd_});
    for (auto &rdd : perThreadRdd_)
        rdd.decay();
    rdd_->reset();
}

void
PdpPartitionPolicy::auditGlobal(InvariantReporter &reporter) const
{
    PdpPolicy::auditGlobal(reporter);

    for (unsigned t = 0; t < numThreads_; ++t) {
        reporter.check(pds_[t] >= 1 && pds_[t] <= params_.dMax,
                       "part.pd_range", name(), ": thread ", t, " PD ",
                       pds_[t], " outside [1, ", params_.dMax, "]");
        // Vacated slots must stay at minimal protection so a leaver's
        // residue keeps aging out (service-mode churn invariant).
        reporter.check(active_[t] || pds_[t] == params_.counterStep,
                       "part.inactive_pd", name(), ": inactive slot ", t,
                       " holds PD ", pds_[t], " != ", params_.counterStep);
    }

    // Greedy partial ordering: within each step of the last E_m search,
    // the chosen peak's (re-evaluated) E_m dominates every candidate this
    // thread offered.  A small relative epsilon absorbs floating-point
    // reassociation.
    for (const GreedyStep &step : lastGreedy_) {
        const double eps = 1e-9 * (1.0 + step.bestCandidateEm);
        reporter.check(step.chosenEm + eps >= step.bestCandidateEm,
                       "part.greedy_order", name(), ": thread ",
                       step.thread, " chose PD ", step.chosenPd,
                       " with E_m ", step.chosenEm,
                       " below a candidate's ", step.bestCandidateEm);
        reporter.check(step.thread < numThreads_, "part.greedy_order",
                       name(), ": trace names thread ", step.thread,
                       " of ", numThreads_);
    }
}

std::unique_ptr<PdpPartitionPolicy>
makePdpPartition(unsigned num_threads, unsigned nc_bits)
{
    return std::make_unique<PdpPartitionPolicy>(num_threads, nc_bits);
}

} // namespace pdp
