#include "cache/cache.h"

#include <bit>
#include <stdexcept>
#include <typeinfo>

#include "check/check.h"
#include "check/invariant_auditor.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/rrip.h"
#include "util/bytescan.h"

namespace pdp
{

Cache::Cache(const CacheConfig &config,
             std::unique_ptr<ReplacementPolicy> policy)
    : config_(config), numSets_(config.numSets()), ways_(config.ways),
      policy_(std::move(policy))
{
    if (!config_.valid())
        throw std::invalid_argument("invalid cache geometry: " +
                                    config_.label);
    PDP_CHECK(ways_ <= 64, "cache ", config_.label, ": ", ways_,
              " ways exceed the 64-way packed-mask limit");
    fullSetMask_ = ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
    setBits_ = static_cast<uint32_t>(std::countr_zero(numSets_));
    tags_.assign(static_cast<size_t>(numSets_) * ways_, 0);
    threadIds_.assign(static_cast<size_t>(numSets_) * ways_, 0);
    // The fingerprint and scratch scans read 16-byte chunks that stay
    // inside the 64-byte SetState block, so no tail padding is needed.
    setState_.assign(numSets_, SetState{});
    PDP_CHECK(policy_ != nullptr, "cache ", config_.label,
              " constructed without a policy");
    policy_->attach(*this, numSets_, ways_);
    // The fused-policy list: the only place fused types are named.
    // Fusing a policy takes an entry here and its access-path ops.
    selectAccessPaths<LruPolicy, RripPolicy, PdpPolicy>();
}

template <typename... Fused>
void
Cache::selectAccessPaths()
{
    fastPath_ = &Cache::accessImpl<ReplacementPolicy, false>;
    instrumentedPath_ = &Cache::accessImpl<ReplacementPolicy, true>;
    // Exact types only: a subclass (DIP, SDP, UCP, TA-DRRIP, the
    // partitioned PDP, ...) overrides virtual hooks the fused ops would
    // bypass.
    const std::type_info &type = typeid(*policy_);
    (
        [&] {
            if (fused_ || type != typeid(Fused))
                return;
            fastPath_ = &Cache::accessImpl<Fused, false>;
            instrumentedPath_ = &Cache::accessImpl<Fused, true>;
            fused_ = true;
        }(),
        ...);
}

uint32_t
Cache::validCount(uint32_t set) const
{
    return static_cast<uint32_t>(std::popcount(setState_[set].valid));
}

uint32_t
Cache::threadWaysInSet(uint32_t set, uint8_t thread) const
{
    const uint8_t *row = threadIds_.data() + lineIdx(set, 0);
    uint64_t match = 0;
    for (uint32_t way = 0; way < ways_; ++way)
        match |= static_cast<uint64_t>(row[way] == thread) << way;
    return static_cast<uint32_t>(std::popcount(match & setState_[set].valid));
}

void
Cache::prefetchSet(uint32_t set) const
{
#if defined(__GNUC__)
    const size_t base = lineIdx(set, 0);
    __builtin_prefetch(setState_.data() + set);
    __builtin_prefetch(tags_.data() + base);
    if (ways_ > 8)
        __builtin_prefetch(tags_.data() + base + 8);
    __builtin_prefetch(threadIds_.data() + base);
#else
    (void)set;
#endif
}

bool
Cache::contains(uint64_t line_addr) const
{
    return findWay(setIndex(line_addr), line_addr) >= 0;
}

AccessOutcome
Cache::access(const AccessContext &ctx_in)
{
    if (!instrumented_) [[likely]] {
        // Fast path: no observer, no auditor.  Callers that already
        // folded the set index avoid the context copy entirely.
        if (ctx_in.set == setIndex(ctx_in.lineAddr)) [[likely]]
            return (this->*fastPath_)(ctx_in);
        AccessContext ctx = ctx_in;
        ctx.set = setIndex(ctx.lineAddr);
        return (this->*fastPath_)(ctx);
    }

    AccessContext ctx = ctx_in;
    ctx.set = setIndex(ctx.lineAddr);
    AccessOutcome outcome = (this->*instrumentedPath_)(ctx);
    if (auditor_)
        auditor_->onAccess();
    return outcome;
}

template <typename P, bool Instrumented>
AccessOutcome
Cache::accessImpl(const AccessContext &ctx)
{
    P &policy = static_cast<P &>(*policy_);
    AccessOutcome outcome;

    const uint8_t tid = ctx.threadId < CacheStats::kMaxThreads
        ? ctx.threadId : CacheStats::kMaxThreads - 1;

    const bool demand = !ctx.isWriteback && !ctx.isPrefetch;
    if (ctx.isWriteback)
        ++stats_.writebackAccesses;
    else if (demand) {
        ++stats_.accesses;
        ++stats_.threadAccesses[tid];
    }

    const int hit_way = findWay(ctx.set, ctx.lineAddr);
    if (hit_way >= 0) {
        // Hit: promote and mark reused.
        const uint64_t bit = 1ull << hit_way;
        setState_[ctx.set].reused |= bit;
        if (ctx.isWrite || ctx.isWriteback)
            setState_[ctx.set].dirty |= bit;
        policy.hitOp(ctx, hit_way);
        if constexpr (Instrumented)
            if (observer_)
                observer_->onHit(ctx, hit_way);
        if (demand) {
            ++stats_.hits;
            ++stats_.threadHits[tid];
        }
        outcome.hit = true;
        outcome.way = hit_way;
        return outcome;
    }

    // Miss.
    if (demand) {
        ++stats_.misses;
        ++stats_.threadMisses[tid];
    }

    int victim_way;
    const bool replace = setState_[ctx.set].valid == fullSetMask_;
    if (replace) {
        // Steady state: every way valid, no invalid-way scan needed.
        victim_way = policy.victimOp(ctx);
        if (victim_way == ReplacementPolicy::kBypass) {
            if (!config_.allowBypass)
                // pdplint: allow(hot-path) cold contract-violation
                // exit; unreachable with a well-formed policy/config
                // pairing, so the throw never runs on the hot path.
                throw std::logic_error(
                    "policy bypassed an inclusive cache");
            policy.bypassOp(ctx);
            if constexpr (Instrumented)
                if (observer_)
                    observer_->onBypass(ctx);
            if (demand)
                ++stats_.bypasses;
            outcome.bypassed = true;
            return outcome;
        }
        PDP_CHECK(victim_way >= 0 && victim_way < static_cast<int>(ways_),
                  policy_->name(), " returned victim way ", victim_way,
                  " outside associativity ", ways_);

        const size_t victim_idx = lineIdx(ctx.set, victim_way);
        const uint64_t victim_bit = 1ull << victim_way;
        outcome.evictedValid = true;
        outcome.evictedAddr = tags_[victim_idx];
        outcome.evictedDirty = (setState_[ctx.set].dirty & victim_bit) != 0;
        outcome.evictedReused = (setState_[ctx.set].reused & victim_bit) != 0;
        outcome.evictedThread = threadIds_[victim_idx];
        if (outcome.evictedDirty)
            ++stats_.evictionsDirty;
        if constexpr (Instrumented)
            if (observer_)
                observer_->onEvict(ctx, victim_way, outcome.evictedAddr,
                                   outcome.evictedReused);
    } else {
        victim_way = findInvalidWay(ctx.set);
    }

    // Install the new line.
    const size_t idx = lineIdx(ctx.set, victim_way);
    const uint64_t bit = 1ull << victim_way;
    tags_[idx] = ctx.lineAddr;
    if (ways_ <= kMaxFpWays)
        setState_[ctx.set].fp[victim_way] = tagFp(ctx.lineAddr);
    threadIds_[idx] = ctx.threadId;
    setState_[ctx.set].valid |= bit;
    if (ctx.isWrite || ctx.isWriteback)
        setState_[ctx.set].dirty |= bit;
    else
        setState_[ctx.set].dirty &= ~bit;
    setState_[ctx.set].reused &= ~bit;
    policy.insertOp(ctx, victim_way, replace);
    if constexpr (Instrumented)
        if (observer_)
            observer_->onInsert(ctx, victim_way);
    if (ctx.isPrefetch)
        ++stats_.prefetchFills;

    outcome.way = victim_way;
    return outcome;
}

void
Cache::auditGlobalInvariants(InvariantReporter &reporter) const
{
    const CacheStats &s = stats_;
    reporter.check(s.hits + s.misses == s.accesses, "cache.stats.identity",
                   config_.label, ": hits ", s.hits, " + misses ", s.misses,
                   " != accesses ", s.accesses);
    reporter.check(s.bypasses <= s.misses, "cache.stats.identity",
                   config_.label, ": bypasses ", s.bypasses, " > misses ",
                   s.misses);
    reporter.check(s.hitRate() >= 0.0 && s.hitRate() <= 1.0 &&
                       s.missRate() >= 0.0 && s.missRate() <= 1.0 &&
                       s.bypassRate() >= 0.0 && s.bypassRate() <= 1.0,
                   "cache.stats.rates", config_.label,
                   ": a rate left [0,1]: hit=", s.hitRate(),
                   " miss=", s.missRate(), " bypass=", s.bypassRate());

    uint64_t thread_accesses = 0;
    uint64_t thread_hits = 0;
    uint64_t thread_misses = 0;
    for (unsigned t = 0; t < CacheStats::kMaxThreads; ++t) {
        thread_accesses += s.threadAccesses[t];
        thread_hits += s.threadHits[t];
        thread_misses += s.threadMisses[t];
        reporter.check(s.threadHits[t] + s.threadMisses[t] ==
                           s.threadAccesses[t],
                       "cache.stats.threads", config_.label, ": thread ", t,
                       " hits ", s.threadHits[t], " + misses ",
                       s.threadMisses[t], " != accesses ",
                       s.threadAccesses[t]);
    }
    reporter.check(thread_accesses == s.accesses &&
                       thread_hits == s.hits && thread_misses == s.misses,
                   "cache.stats.threads", config_.label,
                   ": per-thread sums ", thread_accesses, "/", thread_hits,
                   "/", thread_misses, " != totals ", s.accesses, "/",
                   s.hits, "/", s.misses);

    policy_->auditGlobal(reporter);
}

void
Cache::auditSet(uint32_t set, InvariantReporter &reporter) const
{
    const uint64_t valid = setState_[set].valid;
    // Packed-state invariants of the SoA layout: no mask may carry bits
    // beyond the associativity, and dirty/reused are attributes of valid
    // lines only.
    reporter.check((valid & ~fullSetMask_) == 0, "cache.mask.range",
                   config_.label, ": set ", set, " valid mask ", valid,
                   " has bits beyond way ", ways_ - 1);
    reporter.check((setState_[set].dirty & ~valid) == 0, "cache.mask.subset",
                   config_.label, ": set ", set, " dirty mask ",
                   setState_[set].dirty, " not a subset of valid ", valid);
    reporter.check((setState_[set].reused & ~valid) == 0, "cache.mask.subset",
                   config_.label, ": set ", set, " reused mask ",
                   setState_[set].reused, " not a subset of valid ", valid);

    for (uint32_t way = 0; way < ways_; ++way) {
        if (ways_ <= kMaxFpWays)
            reporter.check(setState_[set].fp[way] ==
                               tagFp(lineAddr(set, way)),
                           "cache.line.fingerprint", config_.label,
                           ": set ", set, " way ", way, " fingerprint ",
                           static_cast<unsigned>(setState_[set].fp[way]),
                           " does not match tag ", lineAddr(set, way));
        if (!isValid(set, way)) {
            // Invalid ways were never filled (nothing invalidates a
            // line), so they stay in the canonical empty state and the
            // fingerprint probe cannot alias a stale tag.
            reporter.check(lineAddr(set, way) == 0 &&
                               lineThread(set, way) == 0,
                           "cache.line.canonical", config_.label, ": set ",
                           set, " way ", way, " is invalid but holds tag ",
                           lineAddr(set, way), " / thread ",
                           static_cast<unsigned>(lineThread(set, way)));
            continue;
        }
        const uint64_t addr = lineAddr(set, way);
        reporter.check(setIndex(addr) == set, "cache.line.set_index",
                       config_.label, ": line ", addr, " stored in set ",
                       set, " but maps to set ", setIndex(addr));
        reporter.check(lineThread(set, way) < CacheStats::kMaxThreads,
                       "cache.line.thread", config_.label, ": set ", set,
                       " way ", way, " owned by thread ",
                       static_cast<unsigned>(lineThread(set, way)));
        for (uint32_t other = way + 1; other < ways_; ++other) {
            reporter.check(!isValid(set, other) ||
                               lineAddr(set, other) != addr,
                           "cache.line.dup", config_.label, ": set ", set,
                           " holds line ", addr, " in ways ", way, " and ",
                           other);
        }
    }
    policy_->auditSet(set, reporter);
}

void
Cache::auditInvariants(InvariantReporter &reporter) const
{
    auditGlobalInvariants(reporter);
    for (uint32_t set = 0; set < numSets_; ++set)
        auditSet(set, reporter);
}

} // namespace pdp
