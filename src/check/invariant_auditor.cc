#include "check/invariant_auditor.h"

#include <sstream>

#include "cache/cache.h"
#include "cache/occupancy_tracker.h"

namespace pdp
{

void
InvariantReporter::fail(const char *invariant, std::string detail)
{
    violations_.push_back({invariant, std::move(detail)});
}

bool
InvariantReporter::has(const std::string &invariant) const
{
    for (const Violation &v : violations_)
        if (v.invariant == invariant)
            return true;
    return false;
}

std::string
InvariantReporter::report() const
{
    std::ostringstream os;
    os << violations_.size() << " invariant violation(s)\n";
    for (const Violation &v : violations_) {
        os << "  [" << v.invariant << "]";
        if (!v.detail.empty())
            os << " " << v.detail;
        os << "\n";
    }
    return os.str();
}

InvariantAuditor::InvariantAuditor() : InvariantAuditor(Options{}) {}

InvariantAuditor::InvariantAuditor(Options options) : options_(options) {}

void
InvariantAuditor::watchCache(const Cache &cache)
{
    caches_.push_back({&cache, 0});
}

void
InvariantAuditor::watchOccupancy(const Cache &cache,
                                 const OccupancyTracker &tracker,
                                 bool cross_check_stats)
{
    occupancies_.push_back({&cache, &tracker, cross_check_stats});
}

void
InvariantAuditor::onAccess()
{
    ++ticks_;
    if (options_.fullEvery != 0 && ticks_ % options_.fullEvery == 0) {
        fullAudit();
        return;
    }
    if (options_.cadence != 0 && ticks_ % options_.cadence == 0)
        incrementalAudit();
}

void
InvariantAuditor::incrementalAudit()
{
    InvariantReporter reporter;
    for (WatchedCache &watched : caches_) {
        watched.cache->auditGlobalInvariants(reporter);
        if (watched.cache->numSets() > 0) {
            watched.cache->auditSet(watched.nextSet, reporter);
            watched.nextSet = (watched.nextSet + 1) %
                watched.cache->numSets();
        }
    }
    for (const WatchedOccupancy &watched : occupancies_)
        watched.tracker->auditGlobal(reporter);
    finish(std::move(reporter));
}

void
InvariantAuditor::fullAudit()
{
    InvariantReporter reporter;
    for (const WatchedCache &watched : caches_)
        watched.cache->auditInvariants(reporter);
    for (const WatchedOccupancy &watched : occupancies_)
        watched.tracker->auditInvariants(*watched.cache,
                                         watched.crossCheckStats, reporter);
    finish(std::move(reporter));
}

const InvariantReporter &
InvariantAuditor::auditNow()
{
    fullAudit();
    return lastReport_;
}

void
InvariantAuditor::finish(InvariantReporter &&reporter)
{
    ++auditsRun_;
    if (reporter.clean()) {
        // Keep lastReport_ pointing at the most recent FAILING pass so a
        // later clean pass does not erase the evidence.
        if (totalViolations_ == 0)
            lastReport_ = std::move(reporter);
        return;
    }
    totalViolations_ += reporter.violations().size();
    if (options_.failFast)
        throw CheckFailure("invariant audit failed: " + reporter.report());
    lastReport_ = std::move(reporter);
}

} // namespace pdp
