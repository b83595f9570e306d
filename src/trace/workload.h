/**
 * @file
 * Multiprogrammed workload construction (Sec. 5): random combinations of
 * suite benchmarks, duplication allowed, one per core.
 */

#ifndef PDP_TRACE_WORKLOAD_H
#define PDP_TRACE_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generator.h"

namespace pdp
{

/** One multiprogrammed workload: a benchmark per core. */
struct WorkloadSpec
{
    std::vector<std::string> benchmarks;
    bool operator==(const WorkloadSpec &) const = default;

    /** Short label like "gcc+mcf+milc+lbm". */
    std::string label() const;
};

/**
 * Deterministically generate `count` random workloads of `cores`
 * benchmarks each (duplication allowed, as in the paper).
 */
std::vector<WorkloadSpec> randomWorkloads(unsigned count, unsigned cores,
                                          uint64_t seed = 42);

/** Instantiate the generators of a workload (thread ids and address
 *  spaces set so duplicates do not alias). */
std::vector<GeneratorPtr> instantiate(const WorkloadSpec &spec);

} // namespace pdp

#endif // PDP_TRACE_WORKLOAD_H
