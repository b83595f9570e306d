/**
 * @file
 * Telemetry::Source — the interface a policy or partition class implements
 * so the epoch sampler can snapshot its internals over time.
 *
 * A Snapshot is an ordered bag of named scalars plus named series
 * (vectors), deliberately schema-free: each policy exports whatever its
 * paper plots.  Established names (consumed by tools/pdpreport.py):
 *
 *   scalars  "pd"            current protecting distance (PdpPolicy)
 *            "recomputes"    PD recomputations so far
 *            "rdd_step"      counter-array bucket width S_c
 *            "rdd_total"     sampled accesses N_t in the current window
 *            "rdd_hits"      recorded reuse hits in the current window
 *            "rdd_tail"      unplaced mass: N_t - hits (RD > d_max or
 *                            never reused inside the window)
 *            "rdd_frozen"    1 when a hit counter saturated and froze
 *                            the array (src/core/rdd.h)
 *            "psel"          set-dueling PSEL value (DIP, DRRIP)
 *            "psel_max"      PSEL saturation value
 *            "psel_b"        1 when followers currently use policy B
 *   series   "rdd"           RD counter-array bucket counts
 *            "e_curve"       E(d_p) for each candidate d_p
 *            "e_dp"          the candidate d_p of each e_curve point
 *            "thread_pds"    per-thread PDs (PdpPartitionPolicy)
 *            "thread_psels"  per-thread PSELs (TA-DRRIP)
 *            "allocation"    per-thread way allocation (UCP, PIPP)
 *            "streaming"     per-thread streaming flags (PIPP)
 *
 * The sampler discovers the source with a dynamic_cast from the LLC's
 * ReplacementPolicy, so policies opt in simply by inheriting Source —
 * nothing on the cache hot path changes.
 */

#ifndef PDP_TELEMETRY_SOURCE_H
#define PDP_TELEMETRY_SOURCE_H

#include <string>
#include <utility>
#include <vector>

namespace pdp
{
namespace telemetry
{

/** One policy snapshot: named scalars + named series, insertion-ordered. */
struct Snapshot
{
    struct Series
    {
        std::string name;
        std::vector<double> values;
    };

    std::vector<std::pair<std::string, double>> scalars;
    std::vector<Series> series;

    void
    setScalar(const std::string &name, double value)
    {
        for (auto &[n, v] : scalars)
            if (n == name) {
                v = value;
                return;
            }
        scalars.emplace_back(name, value);
    }

    void
    setSeries(const std::string &name, std::vector<double> values)
    {
        for (Series &s : series)
            if (s.name == name) {
                s.values = std::move(values);
                return;
            }
        series.push_back({name, std::move(values)});
    }

    /** Pointer to a scalar's value, or nullptr when absent. */
    const double *
    scalar(const std::string &name) const
    {
        for (const auto &[n, v] : scalars)
            if (n == name)
                return &v;
        return nullptr;
    }

    /** Pointer to a series' values, or nullptr when absent. */
    const std::vector<double> *
    findSeries(const std::string &name) const
    {
        for (const Series &s : series)
            if (s.name == name)
                return &s.values;
        return nullptr;
    }
};

/** Implemented by policy/partition classes that export epoch telemetry. */
class Source
{
  public:
    virtual ~Source() = default;

    /** Append this object's current state to `out`.  Called from the
     *  epoch sampler between accesses — never on the cache hot path. */
    virtual void telemetrySnapshot(Snapshot &out) const = 0;
};

} // namespace telemetry
} // namespace pdp

#endif // PDP_TELEMETRY_SOURCE_H
