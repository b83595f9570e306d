#include "partition/ta_drrip.h"

#include "check/invariant_auditor.h"

namespace pdp
{

TaDrripPolicy::TaDrripPolicy(unsigned num_threads, double epsilon)
    : RripPolicy(Mode::Drrip, epsilon), numThreads_(num_threads)
{
}

void
TaDrripPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    RripPolicy::attach(cache, num_sets, num_ways);
    monitors_.clear();
    for (unsigned t = 0; t < numThreads_; ++t) {
        // Distinct salts spread each thread's leader sets across the
        // index space so monitors do not overlap.
        monitors_.emplace_back(num_sets, /*leaders_per_policy=*/32,
                               /*psel_bits=*/10, /*salt=*/t * 97 + 13);
    }
}

void
TaDrripPolicy::auditGlobal(InvariantReporter &reporter) const
{
    // RripPolicy::auditGlobal audits every monitor's PSEL.
    RripPolicy::auditGlobal(reporter);
    reporter.check(monitors_.empty() || monitors_.size() == numThreads_,
                   "tadrrip.monitors", name(), ": ", monitors_.size(),
                   " dueling monitors for ", numThreads_, " threads");
}

} // namespace pdp
