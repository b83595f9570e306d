/**
 * @file
 * PD-based shared-cache partitioning (Sec. 4).
 *
 * Each thread owns an RD counter array (step S_c = 16); the shared RD
 * sampler routes each observation to the accessing thread's array.  At
 * every recomputation the per-thread E curves are evaluated, the top
 * peaks of each are extracted, and a greedy search (threads in order of
 * their best single-thread E, trying each thread's peaks against the
 * partial vector) picks the PD vector maximizing the multi-core hit-rate
 * approximation
 *
 *   E_m(pd) = sum_t H_t(pd_t) / sum_t A_t(pd_t).
 *
 * Decreasing a thread's PD ages its lines faster, shrinking its share of
 * the cache; the vector search thus realizes a soft partition.
 */

#ifndef PDP_PARTITION_PDP_PARTITION_H
#define PDP_PARTITION_PDP_PARTITION_H

#include <memory>
#include <vector>

#include "check/contracts.h"
#include "core/pdp_policy.h"
#include "partition/tenant_aware.h"

namespace pdp
{

/** The multi-core PD-based partitioning policy. */
class PdpPartitionPolicy : public PdpPolicy, public TenantAwarePartition
{
  public:
    /**
     * @param num_threads threads sharing the cache
     * @param nc_bits per-line RPD width (Fig. 12 evaluates 2 and 3)
     * @param peaks_per_thread candidate peaks per thread (paper: 3)
     */
    explicit PdpPartitionPolicy(unsigned num_threads, unsigned nc_bits = 3,
                                unsigned peaks_per_thread = 3);

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;

    /** Current PD of each thread. */
    const std::vector<uint32_t> &threadPds() const { return pds_; }

    void auditGlobal(InvariantReporter &reporter) const override;

    // TenantAwarePartition: slots join/leave dynamically (service mode).
    // Joining resets the slot's RDD and PD and re-runs the greedy E_m
    // search over the active set; leaving additionally drops the slot to
    // minimal protection so its residual lines age out of the cache.
    void beginTenantMode() override;
    void tenantJoin(unsigned slot) override;
    void tenantLeave(unsigned slot) override;
    std::vector<double> tenantQuotas() const override;

    /** Currently active slots. */
    unsigned activeTenants() const;
    bool
    tenantActive(unsigned slot) const
    {
        return slot < active_.size() && active_[slot] != 0;
    }

    /** Epoch telemetry: the base PDP snapshot (shared RDD view) plus the
     *  per-thread PD vector and per-thread RDD masses.  Inactive tenant
     *  slots export PD 0, so join/leave shows up as a series change. */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const override
    {
        PdpPolicy::telemetrySnapshot(out);
        std::vector<double> pds(pds_.size());
        for (size_t t = 0; t < pds_.size(); ++t)
            pds[t] = active_[t] ? static_cast<double>(pds_[t]) : 0.0;
        out.setSeries("thread_pds", std::move(pds));
        std::vector<double> totals(perThreadRdd_.size());
        for (size_t t = 0; t < perThreadRdd_.size(); ++t)
            totals[t] = static_cast<double>(perThreadRdd_[t].total());
        out.setSeries("thread_rdd_totals", std::move(totals));
    }

    /** Fault-injection hook for the checker tests. */
    void
    debugSetThreadPd(unsigned thread, uint32_t pd)
    {
        pds_[thread] = pd;
        setThreadPds(pds_);
    }

  protected:
    void recordObservation(const AccessContext &ctx,
                           const RdObservation &obs) override;
    void recompute() override;

  private:
    /** One step of the last greedy E_m search (audit evidence). */
    struct GreedyStep
    {
        unsigned thread;
        uint32_t chosenPd;
        /** E_m of the partial vector with the chosen peak. */
        double chosenEm;
        /** Best E_m any candidate peak of this thread achieved. */
        double bestCandidateEm;
    };

    /** E_m for a candidate PD vector over threads [0, upto). */
    double evaluateEm(const std::vector<uint32_t> &pds,
                      const std::vector<unsigned> &threads) const;

    /** The greedy E_m vector search over active slots (the body of
     *  recompute(), minus the window decay/reset — tenant churn re-runs
     *  the search without consuming the sampling window). */
    void solvePartition();

    unsigned numThreads_;
    unsigned peaksPerThread_;
    std::vector<RdCounterArray> perThreadRdd_;
    std::vector<uint32_t> pds_;
    /** Slot liveness; all 1 outside tenant mode (fixed-core runs). */
    std::vector<uint8_t> active_;
    /** Trace of the most recent greedy search, read by auditGlobal. */
    std::vector<GreedyStep> lastGreedy_;
};

/** Make the defaults used by Fig. 12 (S_c = 16, n_c in {2, 3}). */
std::unique_ptr<PdpPartitionPolicy> makePdpPartition(unsigned num_threads,
                                                     unsigned nc_bits);

// PdpPolicy's RPD row; the per-thread PDs and RDDs are global state.
PDP_SCRATCH_LAYOUT(PdpPartitionPolicy, RpdRow);

} // namespace pdp

#endif // PDP_PARTITION_PDP_PARTITION_H
