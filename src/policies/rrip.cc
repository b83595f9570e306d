#include "policies/rrip.h"

#include "cache/cache.h"
#include "check/invariant_auditor.h"

namespace pdp
{

RripPolicy::RripPolicy(Mode mode, double epsilon, unsigned rrpv_bits,
                       uint64_t seed)
    : mode_(mode), epsilon_(epsilon),
      maxRrpv_(static_cast<uint8_t>((1u << rrpv_bits) - 1)), rng_(seed)
{
    switch (mode_) {
      case Mode::Srrip: name_ = "SRRIP"; break;
      case Mode::Brrip: name_ = "BRRIP"; break;
      case Mode::Drrip: name_ = "DRRIP"; break;
    }
}

void
RripPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    ReplacementPolicy::attach(cache, num_sets, num_ways);
    rows_.bind(cache.policyScratchBase(), Cache::policyScratchStride(),
               num_sets, num_ways, maxRrpv_);
    monitors_.clear();
    if (mode_ == Mode::Drrip)
        monitors_.emplace_back(num_sets, /*leaders_per_policy=*/32,
                               /*psel_bits=*/10);
}

void
RripPolicy::onHit(const AccessContext &ctx, int way)
{
    hitOp(ctx, way);
}

int
RripPolicy::selectVictim(const AccessContext &ctx)
{
    return victimOp(ctx);
}

void
RripPolicy::onInsert(const AccessContext &ctx, int way)
{
    insertOp(ctx, way, false);
}

void
RripPolicy::auditGlobal(InvariantReporter &reporter) const
{
    ReplacementPolicy::auditGlobal(reporter);
    reporter.check(epsilon_ >= 0.0 && epsilon_ <= 1.0, "rrip.epsilon",
                   name(), ": epsilon ", epsilon_, " outside [0,1]");
    for (const SetDueling &monitor : monitors_)
        monitor.audit(reporter, name().c_str());
}

void
RripPolicy::auditSet(uint32_t set, InvariantReporter &reporter) const
{
    const uint8_t *base = rows_.row(set);
    for (uint32_t way = 0; way < numWays_; ++way)
        reporter.check(base[way] <= maxRrpv_, "rrip.rrpv_range", name(),
                       ": set ", set, " way ", way, " RRPV ",
                       static_cast<unsigned>(base[way]), " > max ",
                       static_cast<unsigned>(maxRrpv_));
}

std::unique_ptr<RripPolicy>
makeSrrip()
{
    return std::make_unique<RripPolicy>(RripPolicy::Mode::Srrip);
}

std::unique_ptr<RripPolicy>
makeBrrip(double epsilon)
{
    return std::make_unique<RripPolicy>(RripPolicy::Mode::Brrip, epsilon);
}

std::unique_ptr<RripPolicy>
makeDrrip(double epsilon)
{
    return std::make_unique<RripPolicy>(RripPolicy::Mode::Drrip, epsilon);
}

} // namespace pdp
