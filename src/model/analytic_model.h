/**
 * @file
 * The analytic estimator: RDD fingerprint -> predicted hit rate, E(d_p)
 * curve, best PD and bypass fraction of the paper's single-core LLC, in
 * microseconds per (PD, workload) point — no cache simulation involved.
 *
 * Two predictors share one fingerprint:
 *
 *  * PDP (SPDP-B/NB): an allocation-balance fixed point.  The paper's
 *    E(d_p) (Sec. 2.4, HitRateModel) ranks candidate PDs but is only
 *    *proportional* to the hit rate; the absolute prediction solves
 *    the steady-state balance between protected occupancy and the
 *    W-way capacity instead — insert stick probability alpha from the
 *    supply of aged-out slots, chain survival from the fingerprint's
 *    pair histogram (continuity Q), a greedy shortest-first bound for
 *    the persistent-population selection effect, and an exponential
 *    linger term for reuses just beyond d_p (see balanceKernel in
 *    analytic_model.cc and DESIGN.md "Analytic model").  The bypass
 *    fraction of SPDP-B is the non-sticking insert flow (1-alpha)*m.
 *
 *  * LRU: an RDD -> stack-distance conversion.  The expected number of
 *    distinct lines between two touches at set-distance d is
 *    SD(d) = sum_{k=1}^{d-1} P(RD > k); a reuse hits iff SD(d) < W.
 *
 * Rescaling: fingerprints are measured once at a reference set count
 * with per-distance resolution; the model rebuckets them to its
 * (sets, S_c, d_max) geometry with d' = round(d * sets_ref / sets).
 *
 * Safety: predictions from a live hardware RdCounterArray refuse (with
 * the typed PredictError) a frozen/saturated array — its shape is
 * silently truncated and would bias every estimate.  Mass beyond the
 * fingerprint's reach is reported as an error bar on each prediction,
 * never silently dropped.
 */

#ifndef PDP_MODEL_ANALYTIC_MODEL_H
#define PDP_MODEL_ANALYTIC_MODEL_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hit_rate_model.h"
#include "core/rdd.h"
#include "trace/rdd_fingerprint.h"

namespace pdp
{
namespace model
{

/**
 * The one geometry every prediction is made for: the paper's 2 MB,
 * 16-way, 64-byte-line single-core LLC (2048 sets), RD counters reaching
 * d_max = 256 at step S_c = 4, eviction slack d_e = W, candidate PDs
 * from 1 and a 5% plateau tolerance on the best-PD walk (HitRateModel).
 */
constexpr uint32_t kSets = 2048;
constexpr uint32_t kWays = 16;
constexpr uint32_t kDMax = 256;
constexpr uint32_t kCounterStep = 4;
constexpr uint32_t kEvictionDelay = kWays;
constexpr uint32_t kMinPd = 1;
constexpr double kPlateauTolerance = 0.05;

/** Typed refusal: the estimator will not predict from unusable input
 *  (e.g. a frozen/saturated RdCounterArray). */
class PredictError : public std::runtime_error
{
  public:
    explicit PredictError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One analytic prediction. */
struct Prediction
{
    /** Predicted LLC hit rate at `pd`. */
    double hitRate = 0.0;
    /** The d_p this prediction was evaluated at. */
    uint32_t pd = 0;
    /** The E-maximizing PD of the full curve (0 = no information). */
    uint32_t bestPd = 0;
    /** Predicted bypassed fraction of LLC accesses (SPDP-B). */
    double bypassFraction = 0.0;
    /** Honest uncertainty: RDD mass beyond the evaluated reach (the
     *  fingerprint tail plus anything rescaling pushed past d_max) as a
     *  fraction of accesses.  |predicted - simulated| is expected to
     *  stay within the validation bound + this bar. */
    double errorBar = 0.0;
    /** The full E(d_p) curve over the model's bucket edges. */
    std::vector<EPoint> eCurve;
};

/** The estimator for the model geometry above. */
class AnalyticModel
{
  public:
    /**
     * Rescale a fingerprint to the model geometry: set-local distances
     * scale by sets_ref/sets, then rebucket at S_c up to d_max.  Mass
     * pushed beyond d_max joins the shape's tail.
     */
    RddShape rescale(const RddFingerprint &fp) const;

    /** Predict SPDP at the E-maximizing PD (`bypass` selects SPDP-B
     *  over SPDP-NB). */
    Prediction predictPdp(const RddFingerprint &fp,
                          bool bypass = false) const;

    /** Predict SPDP at an explicit PD (grid evaluation). */
    Prediction predictPdpAt(const RddFingerprint &fp, uint32_t pd,
                            bool bypass = false) const;

    /**
     * Predict from a live hardware counter array (no rescaling: the
     * array's own geometry is evaluated; capacity still comes from the
     * model geometry).  The array carries no chain-pair information, so
     * the balance solver runs with continuity Q = 0 (conservative).
     * Throws PredictError when the array is frozen — a saturated shape
     * is truncated and must not be extrapolated from.
     */
    Prediction predictPdp(const RdCounterArray &rdd,
                          bool bypass = false) const;

    /** Predict the LRU hit rate via the stack-distance conversion. */
    Prediction predictLru(const RddFingerprint &fp) const;

  private:
    Prediction predictShape(const RddShape &coarse, const RddShape &fine,
                            uint32_t pd, bool at_best, bool bypass) const;

    /** Fine rebucket (step 1, extended reach) for the balance solver
     *  and the LRU scan. */
    RddShape rescaleFine(const RddFingerprint &fp) const;

    HitRateModel model_{kEvictionDelay, kMinPd, kPlateauTolerance};
};

} // namespace model
} // namespace pdp

#endif // PDP_MODEL_ANALYTIC_MODEL_H
