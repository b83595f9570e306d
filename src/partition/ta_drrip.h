/**
 * @file
 * TA-DRRIP — thread-aware dynamic RRIP (Jaleel et al., ISCA 2010), the
 * baseline of the paper's multi-core evaluation (Fig. 12).
 *
 * Each thread owns a set-dueling monitor (with distinct leader sets) and
 * independently chooses SRRIP or BRRIP insertion for its own fills; all
 * threads share the RRPV state and victim selection.  The monitors are
 * RripPolicy's per-thread monitor slots, so the access path is RRIP's.
 */

#ifndef PDP_PARTITION_TA_DRRIP_H
#define PDP_PARTITION_TA_DRRIP_H

#include <vector>

#include "check/contracts.h"
#include "policies/rrip.h"

namespace pdp
{

/** Thread-aware DRRIP. */
class TaDrripPolicy : public RripPolicy
{
  public:
    /**
     * @param num_threads threads sharing the cache
     * @param epsilon BRRIP long-insertion probability
     */
    explicit TaDrripPolicy(unsigned num_threads, double epsilon = 1.0 / 32);

    const std::string &
    name() const override
    {
        static const std::string n = "TA-DRRIP";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;

    void auditGlobal(InvariantReporter &reporter) const override;

    /** Epoch telemetry: every thread's PSEL and its current winner. */
    void
    telemetrySnapshot(telemetry::Snapshot &out) const override
    {
        std::vector<double> psels, winners;
        psels.reserve(monitors_.size());
        winners.reserve(monitors_.size());
        for (const SetDueling &monitor : monitors_) {
            psels.push_back(monitor.pselValue());
            winners.push_back(monitor.followersUseB() ? 1.0 : 0.0);
        }
        out.setSeries("thread_psels", std::move(psels));
        out.setSeries("thread_psel_b", std::move(winners));
        if (!monitors_.empty())
            out.setScalar("psel_max", monitors_.front().pselMax());
    }

  private:
    unsigned numThreads_;
};

// RRIP's RRPV row; the per-thread PSELs are global state.
PDP_SCRATCH_LAYOUT(TaDrripPolicy, RripRow);

} // namespace pdp

#endif // PDP_PARTITION_TA_DRRIP_H
