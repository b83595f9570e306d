/**
 * @file
 * The benchmark's program: one workload, one thread, one process.
 *
 * Timed mode (the default) builds the workload's inputs from --seed (the
 * set-up, timed on its own; see Workload::setupSamples), then runs the
 * workload's cells back to back, repeating the whole workload (one "rep")
 * until --seconds have passed, and reports every simulation call's host
 * time in every rep.  Every call goes through the
 * simulator's public entry points on this thread: lockstep sweeps run
 * with threads = 1, and telemetry, audit, tracing and the prefetcher stay
 * off.  After every rep, a fixed host-speed reference walk (HostReference)
 * runs a few times.  After the reps, the outside-in replay
 * below runs once, untimed, as a reference every replayable cell must
 * match.
 *
 * Traced mode (--trace) never feeds an end-to-end metric.  Each rep runs
 * the cells again, then replays every layer's public calls from outside
 * on the same seed's stream: the generator alone, the L2 walk, the LLC +
 * policy over the captured LLC op stream, and the timing model over the
 * captured (gap, level) pairs.  Spans (workload -> cell -> layer pass)
 * are kept in memory and printed once at exit; each layer's time is the
 * self time of its spans.
 *
 * Output: one JSON object on stdout (see perfbench/run.py, which checks
 * and summarizes it).
 *
 * Usage: pdp_perfbench --workload NAME --seed N --seconds S
 *                      [--trace] [--setup-only] [--t0-ns NS]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/shard_view.h"
#include "core/pdp_policy.h"
#include "partition/pipp.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "service/scenario.h"
#include "service/service_sim.h"
#include "sim/llc_stream.h"
#include "sim/lockstep_sweep.h"
#include "sim/multi_core_sim.h"
#include "sim/policy_factory.h"
#include "sim/single_core_sim.h"
#include "sim/static_pd_search.h"
#include "sim/timing_model.h"
#include "trace/spec_suite.h"
#include "trace/tenant_stream.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace
{

using namespace pdp;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Folds generator output so the drain passes cannot be elided; printed. */
uint64_t g_sink = 0;

/**
 * The host-speed reference: a fixed LRU tag-store walk (32768 sets x 16
 * ways, 4.5 MiB of tags and ages, a xorshift stream over twice the
 * capacity) that lives here rather than in src/, so no change to the
 * simulator moves it.  The host this benchmark runs on is shared: in
 * stretches lasting minutes every code path runs up to 1.6x slower, the
 * simulator and this walk alike.  run.py scales each time metric by this
 * walk's fastest time in the same run, which cancels most of the host's
 * state and keeps the simulator's own cost.  Of the sizes tried (1.1,
 * 4.5 and 18 MiB), this one's time followed the simulator's most closely.
 */
class HostReference
{
  public:
    HostReference() : tags_(kSets * kWays, ~0ull), ages_(kSets * kWays)
    {
        // Each set's ages are a permutation of 0..kWays-1 (0 = MRU).
        for (size_t i = 0; i < ages_.size(); ++i)
            ages_[i] = static_cast<uint8_t>(i % kWays);
    }

    /** One walk of kAccesses lookups; returns its host time (ns). */
    uint64_t
    run()
    {
        const uint64_t start = nowNs();
        uint64_t x = 0x9e3779b97f4a7c15ull;
        uint64_t hits = 0;
        for (uint32_t i = 0; i < kAccesses; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const uint64_t line = x % (2 * kSets * kWays);
            const size_t base = (line % kSets) * kWays;
            uint64_t *tags = &tags_[base];
            uint8_t *ages = &ages_[base];
            uint32_t way = kWays;
            uint32_t victim = 0;
            for (uint32_t w = 0; w < kWays; ++w) {
                if (tags[w] == line)
                    way = w;
                if (ages[w] > ages[victim])
                    victim = w;
            }
            if (way < kWays) {
                ++hits;
            } else {
                way = victim;
                tags[way] = line;
            }
            const uint8_t age = ages[way];
            for (uint32_t w = 0; w < kWays; ++w)
                ages[w] += ages[w] < age;
            ages[way] = 0;
        }
        g_sink += hits;
        return nowNs() - start;
    }

    /** The fastest of `n` walks. */
    uint64_t
    fastest(unsigned n)
    {
        uint64_t best = ~0ull;
        for (unsigned i = 0; i < n; ++i)
            best = std::min(best, run());
        return best;
    }

    /** Resident size of the tag store (the constructor writes every
     *  page). */
    uint64_t
    kib() const
    {
        return (tags_.size() * sizeof(tags_[0]) + ages_.size()) / 1024;
    }

  private:
    static constexpr size_t kSets = 32768;
    static constexpr uint32_t kWays = 16;
    static constexpr uint32_t kAccesses = 50'000;
    std::vector<uint64_t> tags_;
    std::vector<uint8_t> ages_;
};

/** Reference walks after each rep: the rep has just evicted the walk's
 *  tag store, so the first walk refills it, and the fastest of the rest
 *  does not depend on how much memory the simulator touched. */
constexpr unsigned kWalksPerRep = 4;
/** Reference walks of a --setup-only process (about 40 ms). */
constexpr unsigned kReferenceWalks = 20;

// ---------------------------------------------------------------------------
// Spans

/** In-memory span log: name, start, end and parent of every span. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        uint64_t start = 0;
        uint64_t end = 0;
        int parent = -1;
    };

    SpanLog() { spans_.reserve(1 << 16); }

    void
    open(std::string name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), 0, 0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        spans_.back().start = nowNs(); // bookkeeping stays outside the span
    }

    void
    close()
    {
        spans_[stack_.back()].end = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null log records nothing (timed mode, reference pass). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name) : log_(log)
    {
        if (log_)
            log_->open(std::move(name));
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
};

using NameMap = std::map<std::string, double>;

/** Self time (ns) per span name over spans[first..]: each span's
 *  duration minus the part its direct children cover. */
NameMap
selfTimes(const std::vector<SpanLog::Span> &spans, size_t first)
{
    NameMap self;
    for (size_t i = first; i < spans.size(); ++i) {
        const double d = static_cast<double>(spans[i].end - spans[i].start);
        self[spans[i].name] += d;
        if (spans[i].parent >= static_cast<int>(first))
            self[spans[spans[i].parent].name] -= d;
    }
    return self;
}

/** m[key], or a value-initialized V when a failed cell left no entry. */
template <typename V>
V
at(const std::map<std::string, V> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? V{} : it->second;
}

/** Span "cache.llc.LRU" -> metric "cache.llc_ns.LRU"; "trace.gen" ->
 *  "trace.gen_ns". */
std::string
nsMetric(const std::string &span)
{
    const size_t dot = span.find('.', span.find('.') + 1);
    return dot == std::string::npos ? span + "_ns"
                                    : span.substr(0, dot) + "_ns" +
            span.substr(dot);
}

// ---------------------------------------------------------------------------
// Cell statistics

/** One cell's simulated statistics in a fixed field order. */
struct CellStats
{
    std::string key;
    std::vector<std::pair<std::string, double>> fields;
    /** What() of an exception the cell threw. */
    std::string error;
    /** Broken invariants and cross-check mismatches. */
    std::vector<std::string> problems;

    void
    add(std::string name, double value)
    {
        fields.emplace_back(std::move(name), value);
    }
};

/** One simulation call of a rep: its simulated accesses and host time. */
struct Call
{
    uint64_t accesses = 0;
    uint64_t ns = 0;
};

/** Run one cell, recording an exception as the cell's error. */
template <typename Body>
void
guarded(std::vector<CellStats> &out, std::string key, Body &&body)
{
    CellStats st;
    st.key = std::move(key);
    try {
        body(st);
    } catch (const std::exception &e) {
        st.fields.clear();
        st.error = e.what();
    }
    out.push_back(std::move(st));
}

/** guarded() for a cell that is one simulation call of `accesses`
 *  simulated accesses; appends the call's host time to `calls`. */
template <typename Body>
void
timedCell(std::vector<CellStats> &out, std::vector<Call> &calls,
          std::string key, uint64_t accesses, Body &&body)
{
    const uint64_t start = nowNs();
    guarded(out, std::move(key), std::forward<Body>(body));
    calls.push_back({accesses, nowNs() - start});
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Note in `base` every cell that `other` (same keys, same order)
 *  disagrees with, naming the first differing field. */
void
crossCheck(std::vector<CellStats> &base, const std::vector<CellStats> &other,
           const std::string &what)
{
    if (other.size() != base.size()) {
        for (CellStats &cell : base)
            cell.problems.push_back(what + ": cell count differs");
        return;
    }
    for (size_t c = 0; c < base.size(); ++c) {
        const CellStats &a = base[c];
        const CellStats &b = other[c];
        std::string diff;
        if (a.key != b.key || a.error != b.error ||
            a.fields.size() != b.fields.size()) {
            diff = "cell shape differs";
        } else {
            for (size_t f = 0; f < a.fields.size() && diff.empty(); ++f)
                if (a.fields[f] != b.fields[f])
                    diff = a.fields[f].first + " " +
                        num(a.fields[f].second) + " vs " +
                        num(b.fields[f].second);
        }
        if (!diff.empty())
            base[c].problems.push_back(what + ": " + diff);
    }
}

void
addSingle(CellStats &st, const CacheStats &llc, const TimingModel &timing)
{
    st.add("llc_accesses", static_cast<double>(llc.accesses));
    st.add("llc_hits", static_cast<double>(llc.hits));
    st.add("llc_misses", static_cast<double>(llc.misses));
    st.add("llc_bypasses", static_cast<double>(llc.bypasses));
    st.add("instructions", static_cast<double>(timing.instructions()));
    st.add("cycles", static_cast<double>(timing.cycles()));
}

void
addSingle(CellStats &st, const SimResult &r)
{
    st.add("llc_accesses", static_cast<double>(r.llcAccesses));
    st.add("llc_hits", static_cast<double>(r.llcHits));
    st.add("llc_misses", static_cast<double>(r.llcMisses));
    st.add("llc_bypasses", static_cast<double>(r.llcBypasses));
    st.add("instructions", static_cast<double>(r.instructions));
    st.add("cycles", static_cast<double>(r.cycles));
}

// ---------------------------------------------------------------------------
// Outside-in replay: the layers of Hierarchy::access, one at a time

/** Time-only generator pass (traced mode). */
void
drain(AccessGenerator &gen, uint64_t n)
{
    uint64_t sink = 0;
    for (uint64_t i = 0; i < n; ++i)
        sink += gen.next().lineAddr;
    g_sink += sink;
}

/** Round-robin capture of `rounds` accesses from each generator. */
std::vector<Access>
capture(const std::vector<GeneratorPtr> &gens, uint64_t rounds)
{
    std::vector<Access> out;
    out.reserve(rounds * gens.size());
    for (uint64_t r = 0; r < rounds; ++r)
        for (const GeneratorPtr &gen : gens)
            out.push_back(gen->next());
    return out;
}

/** The LLC input of a run: every LLC op (demand, or dirty-L2-victim
 *  writeback) in hierarchy order, with each demand op's access index. */
struct OpStream
{
    std::vector<AccessContext> ops;
    std::vector<int64_t> accessIdx; //!< -1 for writebacks
    size_t warmupOps = 0;           //!< ops issued before the warmup ends
    uint64_t l2Hits = 0;
    uint64_t writebacks = 0;
};

/**
 * Walk `accesses` through per-thread paper L2s (plain LRU) exactly as
 * Hierarchy::access does.  With `stream`, also capture the LLC op stream;
 * without, this is the timed L2 pass and does only the L2's own work.
 */
void
walkL2(const std::vector<Access> &accesses, unsigned threads,
       uint64_t warmup, OpStream *stream)
{
    std::vector<std::unique_ptr<Cache>> l2s;
    for (unsigned t = 0; t < threads; ++t)
        l2s.push_back(std::make_unique<Cache>(
            CacheConfig::paperL2(), std::make_unique<LruPolicy>()));
    AccessContext ctx;
    for (size_t i = 0; i < accesses.size(); ++i) {
        const Access &a = accesses[i];
        if (stream && i == warmup)
            stream->warmupOps = stream->ops.size();
        Cache &l2 = *l2s[a.threadId < threads ? a.threadId : 0];
        ctx.lineAddr = a.lineAddr;
        ctx.pc = a.pc;
        ctx.threadId = a.threadId;
        ctx.isWrite = a.isWrite;
        ctx.isWriteback = false;
        ctx.set = l2.setIndex(ctx.lineAddr);
        const AccessOutcome out = l2.access(ctx);
        if (!stream)
            continue;
        if (out.hit) {
            ++stream->l2Hits;
            continue;
        }
        stream->ops.push_back(ctx);
        stream->accessIdx.push_back(static_cast<int64_t>(i));
        if (out.evictedValid && out.evictedDirty) {
            AccessContext wb;
            wb.lineAddr = out.evictedAddr;
            wb.threadId = out.evictedThread;
            wb.isWrite = true;
            wb.isWriteback = true;
            stream->ops.push_back(wb);
            stream->accessIdx.push_back(-1);
            ++stream->writebacks;
        }
    }
    if (stream && accesses.size() <= warmup)
        stream->warmupOps = stream->ops.size();
}

constexpr uint8_t kAtL2 = 0;
constexpr uint8_t kAtLlc = 1;
constexpr uint8_t kAtMemory = 2;

/** Replay the op stream into `llc`, resetting its statistics where the
 *  warmup ends; stamps each demand access's level into `levels`. */
void
replayLlc(Cache &llc, const OpStream &s, std::vector<uint8_t> &levels)
{
    AccessContext ctx;
    for (size_t i = 0; i < s.ops.size(); ++i) {
        if (i == s.warmupOps)
            llc.resetStats();
        ctx = s.ops[i];
        ctx.set = llc.setIndex(ctx.lineAddr);
        const AccessOutcome out = llc.access(ctx);
        if (s.accessIdx[i] >= 0)
            levels[s.accessIdx[i]] = out.hit ? kAtLlc : kAtMemory;
    }
    if (s.warmupOps == s.ops.size())
        llc.resetStats();
}

/** Replay the measured accesses' (gap, level) pairs into per-thread
 *  timing models. */
void
replayTiming(std::vector<TimingModel> &timers,
             const std::vector<Access> &accesses,
             const std::vector<uint8_t> &levels, uint64_t warmup)
{
    static constexpr HitLevel kLevel[] = {HitLevel::L2, HitLevel::Llc,
                                          HitLevel::Memory};
    for (size_t i = warmup; i < accesses.size(); ++i)
        timers[accesses[i].threadId].onAccess(accesses[i].instrGap,
                                              kLevel[levels[i]]);
}

/** Demand-op ratios at the L2 -> LLC boundary. */
void
boundaryRatios(NameMap &m, uint64_t accesses, uint64_t l2Hits, uint64_t ops,
               uint64_t writebacks)
{
    const double a = static_cast<double>(accesses);
    m["cache.l2_hit_ratio"] = static_cast<double>(l2Hits) / a;
    m["cache.llc_ops_per_access"] = static_cast<double>(ops) / a;
    m["cache.writeback_frac"] =
        ops ? static_cast<double>(writebacks) / static_cast<double>(ops)
            : 0.0;
}

uint64_t
pdRecomputes(const Cache &llc)
{
    const auto *pdp = dynamic_cast<const PdpPolicy *>(&llc.policy());
    return pdp ? pdp->pdHistory().size() : 0;
}

/** Demand LLC ops between two UMON lookaheads of UCP and PIPP (both
 *  constructors' default, which makeSharedPolicy keeps). */
constexpr uint64_t kRepartitionInterval = 1'000'000;
static_assert(PippPolicy::Params{}.repartitionInterval ==
              kRepartitionInterval);

/** Way allocation of a UCP or PIPP LLC; empty for any other policy. */
std::vector<uint32_t>
wayAllocation(const Cache &llc)
{
    if (const auto *ucp = dynamic_cast<const UcpPolicy *>(&llc.policy()))
        return ucp->allocation();
    if (const auto *pipp = dynamic_cast<const PippPolicy *>(&llc.policy()))
        return pipp->allocation();
    return {};
}

/** Per-policy measured-phase LLC totals (hit and bypass ratios). */
struct PolicyTotals
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t bypasses = 0;

    void
    add(const CacheStats &s)
    {
        accesses += s.accesses;
        hits += s.hits;
        bypasses += s.bypasses;
    }
    double hitRatio() const { return accesses ? double(hits) / accesses : 0; }
    double
    bypassRatio() const
    {
        return accesses ? double(bypasses) / accesses : 0;
    }
};

/**
 * The LLC + policy figures every workload reports under the same names,
 * whatever its policies: replay host time per LLC op over all of the
 * workload's policies (cache.llc_ns) and over its PDP-family policies
 * alone (core.pdp_llc_ns), and the measured-phase LLC hit ratio pooled
 * over all of them (policies.hit_ratio).
 */
class LlcLedger
{
  public:
    void
    add(const std::string &policy, double replayNs, double replayOps,
        const PolicyTotals &stats)
    {
        ns_ += replayNs;
        ops_ += replayOps;
        if (policy.find("PDP") != std::string::npos) {
            pdpNs_ += replayNs;
            pdpOps_ += replayOps;
        }
        totals_.accesses += stats.accesses;
        totals_.hits += stats.hits;
    }

    void
    write(NameMap &m) const
    {
        m["cache.llc_ns"] = ops_ > 0 ? ns_ / ops_ : 0.0;
        m["core.pdp_llc_ns"] = pdpOps_ > 0 ? pdpNs_ / pdpOps_ : 0.0;
        m["policies.hit_ratio"] = totals_.hitRatio();
    }

  private:
    double ns_ = 0, ops_ = 0, pdpNs_ = 0, pdpOps_ = 0;
    PolicyTotals totals_;
};

// ---------------------------------------------------------------------------
// Workloads

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from the seed (the measured set-up). */
    virtual void setup(uint64_t seed, SpanLog *log) = 0;

    /**
     * How many fresh workloads one set-up round builds (main() times the
     * rounds).  Once the first set-up has faulted in the heap and bound
     * the library calls, building inputs is pure compute, and the median
     * of many is a steady reading; a single cold set-up of 40-80 us moved
     * by 30% with the host's page fault and exec costs.
     */
    virtual unsigned setupSamples() const { return 31; }

    /** Run every cell once, appending one Call per simulation call.  Each
     *  cell counts its own accesses (a lockstep lane counts every
     *  access). */
    virtual void run(std::vector<CellStats> &out, std::vector<Call> &calls,
                     SpanLog *log) = 0;

    /** Replay the layers from outside.  Appends the replayed statistics
     *  of every cell the replay reproduces exactly, in run() order;
     *  appends nothing when the replay is only an estimate. */
    virtual void replay(std::vector<CellStats> &out, SpanLog *log) = 0;

    /** Per-layer metrics of one traced rep from its span self times. */
    virtual NameMap layers(const NameMap &self) const = 0;

    /** Describes the generated inputs (printed for the record). */
    virtual std::string inputs() const { return ""; }

    /** Per-cell remarks from the last replay (printed when traced). */
    virtual std::vector<std::string> notes() const { return {}; }
};

// --- workloads on the sequential drivers ----------------------------------

/**
 * A workload whose cells are (stream, policy) pairs on a sequential
 * driver (runSingleCore, runMultiCore).  The replay walks each stream once
 * through the generator and L2 layers, captures its LLC op stream, then
 * replays that stream once per policy through the LLC and timing layers.
 */
class StreamWorkload : public Workload
{
  public:
    void
    replay(std::vector<CellStats> &out, SpanLog *log) override
    {
        l2Hits_ = ops_ = writebacks_ = pdRecomputes_ = 0;
        totals_.clear();
        lookaheads_.clear();
        notes_.clear();
        const uint64_t warmup = warmupRounds_ * threads_;
        for (size_t s = 0; s < streams().size(); ++s) {
            const std::string &stream = streams()[s];
            std::vector<Access> accesses;
            OpStream ops;
            {
                ScopedSpan cell(log, "replay:" + stream);
                if (log) {
                    const auto gens = generators(s);
                    ScopedSpan pass(log, "trace.gen");
                    for (uint64_t r = 0; r < rounds_; ++r)
                        for (const GeneratorPtr &gen : gens)
                            g_sink += gen->next().lineAddr;
                }
                accesses = capture(generators(s), rounds_);
                if (log) {
                    ScopedSpan pass(log, "cache.l2");
                    walkL2(accesses, threads_, warmup, nullptr);
                }
                walkL2(accesses, threads_, warmup, &ops);
            }
            l2Hits_ += ops.l2Hits;
            ops_ += ops.ops.size();
            writebacks_ += ops.writebacks;

            std::vector<uint8_t> levels(accesses.size(), kAtL2);
            for (const std::string &policy : policies_) {
                const std::string key = stream + "/" + policy;
                ScopedSpan cell(log, "replay:" + key);
                guarded(out, key, [&](CellStats &st) {
                    const std::unique_ptr<Cache> llc = makeLlc(policy);
                    {
                        ScopedSpan pass(log, llcSpan(policy));
                        replayLlc(*llc, ops, levels);
                    }
                    std::vector<TimingModel> timers(threads_,
                                                    TimingModel(timing_));
                    {
                        ScopedSpan pass(log, "sim.timing");
                        replayTiming(timers, accesses, levels, warmup);
                    }
                    addStats(st, *llc, timers);
                    totals_[policy].add(llc->stats());
                    pdRecomputes_ += pdRecomputes(*llc);
                    noteLookaheads(key, policy, *llc, ops);
                });
            }
        }
    }

    NameMap
    layers(const NameMap &self) const override
    {
        const double policies = static_cast<double>(policies_.size());
        const uint64_t accesses = streams().size() * rounds_ * threads_;
        const double a = static_cast<double>(accesses);
        const double measured = policies * a *
            static_cast<double>(rounds_ - warmupRounds_) /
            static_cast<double>(rounds_);
        NameMap m;
        const double gen = at(self, "trace.gen");
        const double l2 = at(self, "cache.l2");
        const double timing = at(self, "sim.timing");
        m["trace.gen_ns"] = gen / a;
        m["cache.l2_ns"] = l2 / a;
        m["sim.timing_ns"] = timing / measured;
        boundaryRatios(m, accesses, l2Hits_, ops_, writebacks_);
        // Every cell pays its own generator and L2 walk end to end.
        double layered = policies * (gen + l2) + timing;
        LlcLedger ledger;
        for (const std::string &policy : policies_) {
            const double llc = at(self, llcSpan(policy));
            layered += llc;
            m[nsMetric(llcSpan(policy))] = llc / static_cast<double>(ops_);
            const PolicyTotals totals = at(totals_, policy);
            ledger.add(policy, llc, static_cast<double>(ops_), totals);
            m["policies.hit_ratio." + policy] = totals.hitRatio();
            if (totals.bypasses > 0)
                m["core.bypass_ratio." + policy] = totals.bypassRatio();
            if (const auto it = lookaheads_.find(policy);
                it != lookaheads_.end())
                m["partition.lookaheads." + policy] =
                    static_cast<double>(it->second);
        }
        if (pdRecomputes_ > 0)
            m["core.pd_recomputes"] = static_cast<double>(pdRecomputes_);
        ledger.write(m);
        const double e2e = at(self, "e2e");
        m["sim.driver_ns"] = (e2e - layered) / (policies * a);
        m["sim.closure"] = layered / e2e;
        return m;
    }

    std::vector<std::string> notes() const override { return notes_; }

  protected:
    StreamWorkload(std::vector<std::string> policies, unsigned threads)
        : policies_(std::move(policies)), threads_(threads)
    {}

    /** Stream names in cell order (benchmarks or mixes). */
    virtual const std::vector<std::string> &streams() const = 0;
    /** Fresh generators of stream `s`, one per thread. */
    virtual std::vector<GeneratorPtr> generators(size_t s) const = 0;
    virtual std::unique_ptr<Cache>
    makeLlc(const std::string &policy) const = 0;
    /** Span of the LLC replay: the src/ module the policy lives in. */
    virtual std::string llcSpan(const std::string &policy) const = 0;
    virtual void addStats(CellStats &st, const Cache &llc,
                          const std::vector<TimingModel> &timers) const = 0;

    const std::vector<std::string> policies_;
    const unsigned threads_;
    /** Accesses per thread, warmup included, and the warmup's share. */
    uint64_t rounds_ = 0;
    uint64_t warmupRounds_ = 0;
    TimingParams timing_{};

  private:
    /** For a UCP or PIPP cell, count the UMON lookaheads its replay ran
     *  (the policy counts every demand op from its first, warmup
     *  included) and note them with the final way allocation, which
     *  differs from the equal split once a lookahead has run. */
    void
    noteLookaheads(const std::string &key, const std::string &policy,
                   const Cache &llc, const OpStream &ops)
    {
        const std::vector<uint32_t> ways = wayAllocation(llc);
        if (ways.empty())
            return;
        const uint64_t demand = ops.ops.size() - ops.writebacks;
        const uint64_t runs = demand / kRepartitionInterval;
        const auto it = lookaheads_.find(policy);
        lookaheads_[policy] =
            it == lookaheads_.end() ? runs : std::min(it->second, runs);
        std::string note = key + ": ";
        note += std::to_string(demand) + " demand LLC ops, ";
        note += std::to_string(runs) + " lookaheads, final ways";
        for (uint32_t w : ways) {
            note += ' ';
            note += std::to_string(w);
        }
        notes_.push_back(std::move(note));
    }

    uint64_t l2Hits_ = 0, ops_ = 0, writebacks_ = 0, pdRecomputes_ = 0;
    std::map<std::string, PolicyTotals> totals_;
    /** Fewest lookaheads of any cell, per UCP or PIPP policy. */
    std::map<std::string, uint64_t> lookaheads_;
    std::vector<std::string> notes_;
};

// --- fig10 -----------------------------------------------------------------

/**
 * Fig. 10 single-core cells: four benchmarks picked for the path each
 * exercises (mcf: thrashing miss path; lbm: streaming stores and
 * writebacks; astar: LRU-friendly hits; sphinx3: a strong reuse-distance
 * peak for PDP protection, bypass and PD recompute) under LRU, DRRIP and
 * PDP-8 on the paper geometry.
 */
class Fig10 : public StreamWorkload
{
  public:
    Fig10() : StreamWorkload({"LRU", "DRRIP", "PDP-8"}, 1)
    {
        config_.warmup = 150'000;
        config_.accesses = 450'000;
        warmupRounds_ = config_.warmup;
        rounds_ = config_.warmup + config_.accesses;
        timing_ = config_.timing;
    }

    void
    setup(uint64_t seed, SpanLog *) override
    {
        seed_ = seed;
        for (const std::string &bench : kBenches)
            for (size_t p = 0; p < policies_.size(); ++p)
                gens_.push_back(SpecSuite::make(bench, seed));
    }

    void
    run(std::vector<CellStats> &out, std::vector<Call> &calls,
        SpanLog *log) override
    {
        size_t c = 0;
        for (const std::string &bench : kBenches)
            for (const std::string &policy : policies_) {
                AccessGenerator &gen = *gens_[c++];
                gen.reset();
                const std::string key = bench + "/" + policy;
                ScopedSpan cell(log, "cell:" + key);
                timedCell(out, calls, key, rounds_, [&](CellStats &st) {
                    ScopedSpan e2e(log, "e2e");
                    Hierarchy hierarchy(config_.hierarchy,
                                        makePolicy(policy));
                    addSingle(st, runSingleCore(gen, hierarchy, config_));
                });
            }
    }

  private:
    const std::vector<std::string> &streams() const override
    {
        return kBenches;
    }

    std::vector<GeneratorPtr>
    generators(size_t s) const override
    {
        std::vector<GeneratorPtr> gens;
        gens.push_back(SpecSuite::make(kBenches[s], seed_));
        return gens;
    }

    std::unique_ptr<Cache>
    makeLlc(const std::string &policy) const override
    {
        return std::make_unique<Cache>(config_.hierarchy.llc,
                                       makePolicy(policy));
    }

    std::string
    llcSpan(const std::string &policy) const override
    {
        if (policy == "LRU")
            return "cache.llc.LRU";
        if (policy == "DRRIP")
            return "policies.llc.DRRIP";
        return "core.llc." + policy;
    }

    void
    addStats(CellStats &st, const Cache &llc,
             const std::vector<TimingModel> &timers) const override
    {
        addSingle(st, llc.stats(), timers[0]);
    }

    const std::vector<std::string> kBenches = {"429.mcf", "470.lbm",
                                               "473.astar", "482.sphinx3"};
    SimConfig config_;
    uint64_t seed_ = 0;
    std::vector<GeneratorPtr> gens_;
};

// --- explore_grid ----------------------------------------------------------

/**
 * The explore suite's exhaustive static-PD grid for 450.soplex: SPDP-NB
 * and SPDP-B at every PD of defaultPdGrid(), 38 lanes over one trace
 * decode in a single runSingleCoreLockstep call with threads = 1.
 */
class ExploreGrid : public Workload
{
  public:
    ExploreGrid()
    {
        config_.warmup = 100'000;
        config_.accesses = 300'000;
    }

    void
    setup(uint64_t seed, SpanLog *) override
    {
        seed_ = seed;
        gen_ = SpecSuite::make(kBench, seed);
        for (const char *family : {"SPDP-NB", "SPDP-B"})
            for (uint32_t pd : defaultPdGrid()) {
                lanes_.push_back(std::string(family) + ":" +
                                 std::to_string(pd));
                families_.push_back(family);
                const bool bypass = families_.back() == "SPDP-B";
                factories_.push_back(
                    [pd, bypass]() -> std::unique_ptr<ReplacementPolicy> {
                        return bypass ? makeSpdpB(pd) : makeSpdpNb(pd);
                    });
            }
    }

    void
    run(std::vector<CellStats> &out, std::vector<Call> &calls,
        SpanLog *log) override
    {
        gen_->reset();
        ScopedSpan cell(log, "cell:" + kBench + "/lockstep");
        std::vector<SimResult> results;
        std::string error;
        const uint64_t start = nowNs();
        try {
            ScopedSpan e2e(log, "e2e");
            results = runSingleCoreLockstep(*gen_, config_, factories_, 1);
        } catch (const std::exception &e) {
            error = e.what();
        }
        calls.push_back({lanes_.size() * perLane(), nowNs() - start});
        for (size_t c = 0; c < lanes_.size(); ++c) {
            CellStats st;
            st.key = kBench + "/" + lanes_[c];
            if (c < results.size())
                addSingle(st, results[c]);
            else
                st.error = error.empty() ? "lane missing" : error;
            out.push_back(std::move(st));
        }
    }

    /** Mirror of the lockstep driver from outside: the front-end fills a
     *  chunk, then each lane replays that chunk's ops and timing. */
    void
    replay(std::vector<CellStats> &out, SpanLog *log) override
    {
        ScopedSpan cell(log, "replay:" + kBench);
        if (log) {
            auto gen = SpecSuite::make(kBench, seed_);
            ScopedSpan pass(log, "trace.gen");
            drain(*gen, perLane());
        }
        if (log) {
            std::vector<GeneratorPtr> gens;
            gens.push_back(SpecSuite::make(kBench, seed_));
            const std::vector<Access> accesses = capture(gens, perLane());
            ScopedSpan pass(log, "cache.l2");
            walkL2(accesses, 1, config_.warmup, nullptr);
        }

        struct Lane
        {
            std::unique_ptr<Cache> llc;
            std::unique_ptr<TimingModel> timing;
            std::vector<uint8_t> levels;
        };
        auto gen = SpecSuite::make(kBench, seed_);
        detail::LlcStreamFrontEnd frontEnd(
            config_.hierarchy, ShardPlan::make(config_.hierarchy.llc, 1));
        std::vector<Lane> lanes(lanes_.size());
        for (size_t c = 0; c < lanes.size(); ++c) {
            lanes[c].llc = std::make_unique<Cache>(config_.hierarchy.llc,
                                                   factories_[c]());
            lanes[c].levels.resize(detail::kStreamChunk);
        }
        l2Hits_ = ops_ = writebacks_ = timedOps_ = 0;

        auto phase = [&](uint64_t total) {
            uint64_t remaining = total;
            while (remaining > 0) {
                size_t n = 0;
                {
                    ScopedSpan pass(log, "sim.frontend");
                    n = frontEnd.fill(*gen, remaining);
                }
                if (n == 0)
                    break;
                remaining -= n;
                const auto &ops = frontEnd.ops();
                const auto &segments = frontEnd.segments();
                const detail::TimingSegment tail = frontEnd.tailSegment();
                const uint32_t *gaps = frontEnd.gaps().data();
                ops_ += ops.size();
                l2Hits_ += n - segments.size();
                writebacks_ += ops.size() - segments.size();
                if (lanes[0].timing)
                    timedOps_ += segments.size();
                for (size_t c = 0; c < lanes.size(); ++c) {
                    Lane &lane = lanes[c];
                    {
                        ScopedSpan pass(log, "core.llc." + families_[c]);
                        AccessContext ctx;
                        for (const detail::LlcOp &op : ops) {
                            ctx.lineAddr = op.lineAddr;
                            ctx.pc = op.pc;
                            ctx.set = op.set;
                            ctx.threadId = op.threadId;
                            ctx.isWrite = op.isWrite;
                            ctx.isWriteback = op.isWriteback;
                            const AccessOutcome res = lane.llc->access(ctx);
                            if (op.accessIdx >= 0)
                                lane.levels[op.accessIdx] = res.hit
                                    ? detail::kLevelLlc
                                    : detail::kLevelMemory;
                        }
                    }
                    if (!lane.timing)
                        continue;
                    ScopedSpan pass(log, "sim.lane_timing");
                    size_t seg = 0;
                    for (const detail::LlcOp &op : ops) {
                        if (op.accessIdx < 0)
                            continue;
                        const detail::TimingSegment &hits = segments[seg++];
                        lane.timing->onL2Hits(hits.gapSum, hits.count);
                        lane.timing->onAccess(
                            gaps[op.accessIdx],
                            detail::toHitLevel(lane.levels[op.accessIdx]));
                    }
                    lane.timing->onL2Hits(tail.gapSum, tail.count);
                }
            }
        };
        phase(config_.warmup);
        frontEnd.resetL2Stats();
        for (Lane &lane : lanes) {
            lane.llc->resetStats();
            lane.timing = std::make_unique<TimingModel>(config_.timing);
        }
        phase(config_.accesses);

        totals_.clear();
        for (size_t c = 0; c < lanes.size(); ++c) {
            CellStats st;
            st.key = kBench + "/" + lanes_[c];
            addSingle(st, lanes[c].llc->stats(), *lanes[c].timing);
            totals_[families_[c]].add(lanes[c].llc->stats());
            out.push_back(std::move(st));
        }
    }

    NameMap
    layers(const NameMap &self) const override
    {
        const double accesses = static_cast<double>(perLane());
        const double pds = static_cast<double>(defaultPdGrid().size());
        const double lanes = static_cast<double>(lanes_.size());
        NameMap m;
        m["trace.gen_ns"] = at(self, "trace.gen") / accesses;
        m["cache.l2_ns"] = at(self, "cache.l2") / accesses;
        const double frontEnd = at(self, "sim.frontend");
        const double laneTiming = at(self, "sim.lane_timing");
        m["sim.frontend_ns"] = frontEnd / accesses;
        m["sim.lane_timing_ns"] =
            laneTiming / (lanes * static_cast<double>(timedOps_));
        // Per measured access of one lane, as on the sequential drivers.
        m["sim.timing_ns"] =
            laneTiming / (lanes * static_cast<double>(config_.accesses));
        boundaryRatios(m, perLane(), l2Hits_, ops_, writebacks_);
        double layered = frontEnd + laneTiming;
        LlcLedger ledger;
        for (const char *family : {"SPDP-NB", "SPDP-B"}) {
            const std::string span = std::string("core.llc.") + family;
            const double llc = at(self, span);
            const double ops = pds * static_cast<double>(ops_);
            layered += llc;
            // Mean over the grid's PDs, per op.
            m[nsMetric(span)] = llc / ops;
            ledger.add(family, llc, ops, at(totals_, family));
            m[std::string("policies.hit_ratio.") + family] =
                at(totals_, family).hitRatio();
        }
        m["core.bypass_ratio.SPDP-B"] = at(totals_, "SPDP-B").bypassRatio();
        ledger.write(m);
        const double e2e = at(self, "e2e");
        m["sim.driver_ns"] = (e2e - layered) / accesses;
        m["sim.closure"] = layered / e2e;
        return m;
    }

  private:
    uint64_t perLane() const { return config_.warmup + config_.accesses; }

    const std::string kBench = "450.soplex";
    SimConfig config_;
    uint64_t seed_ = 0;
    GeneratorPtr gen_;
    std::vector<std::string> lanes_;
    std::vector<std::string> families_;
    std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>>
        factories_;
    uint64_t l2Hits_ = 0, ops_ = 0, writebacks_ = 0, timedOps_ = 0;
    std::map<std::string, PolicyTotals> totals_;
};

// --- fig12_4c --------------------------------------------------------------

/** Field name of thread `t`'s statistic (GCC 12 warns on the
 *  `"t" + std::to_string(t)` spelling, GCC bug 105651). */
std::string
threadField(size_t t, const char *field)
{
    std::string name = "t";
    name += std::to_string(t);
    name += '.';
    return name + field;
}

/**
 * Fig. 12 4-core mixes on the round-robin multi-core driver under
 * TA-DRRIP, UCP, PIPP and PDP-3.  The seed shuffles the 16 multi-core
 * benchmarks into four mixes of four, so every run simulates each
 * benchmark once and only the co-runners change with the seed: one drawn
 * mix (randomWorkloads(1, 4, seed)) made the cost, memory and set-up of
 * a run depend on which benchmarks the seed happened to draw.  The
 * standalone-LRU baselines are computed in set-up (standaloneIpc
 * memoizes them per process), so no policy pays for them.
 *
 * Each thread runs 160k + 480k accesses, so that every UCP and PIPP cell
 * runs its UMON lookahead at least twice (every 1M demand LLC ops): the
 * four benchmarks with the most L2 hits (473.astar, 437.leslie3d,
 * 459.GemsFDTD, 429.mcf) send 0.65-0.98 of their accesses to the LLC, so
 * even a mix of those four issues 2.18M demand ops.  The traced replay
 * reports each cell's lookahead count.
 */
class Fig12 : public StreamWorkload
{
  public:
    Fig12() : StreamWorkload({"TA-DRRIP", "UCP", "PIPP", "PDP-3"}, 4)
    {
        config_.cores = threads_;
        config_.warmupPerThread = 160'000;
        config_.accessesPerThread = 480'000;
        warmupRounds_ = config_.warmupPerThread;
        rounds_ = config_.warmupPerThread + config_.accessesPerThread;
        timing_ = config_.timing;
    }

    void
    setup(uint64_t seed, SpanLog *log) override
    {
        std::vector<std::string> names = SpecSuite::multiCoreNames();
        Rng rng(seed);
        for (size_t i = names.size(); i > 1; --i)
            std::swap(names[i - 1], names[rng.below(i)]);
        for (size_t i = 0; i + threads_ <= names.size(); i += threads_) {
            WorkloadSpec mix;
            mix.benchmarks.assign(names.begin() + i,
                                  names.begin() + i + threads_);
            labels_.push_back(mix.label());
            mixes_.push_back(std::move(mix));
        }
        ScopedSpan span(log, "partition.baseline");
        const uint64_t start = nowNs();
        for (const std::string &bench : names)
            standaloneIpc(bench, config_);
        baselineS_ = static_cast<double>(nowNs() - start) / 1e9;
    }

    /** A second set-up in one process would find the baselines memoized,
     *  so a process times one set-up and run.py samples more processes.
     *  Simulating the baselines takes most of a second, far longer than
     *  any cold-start cost. */
    unsigned setupSamples() const override { return 1; }

    void
    run(std::vector<CellStats> &out, std::vector<Call> &calls,
        SpanLog *log) override
    {
        for (const WorkloadSpec &mix : mixes_)
            for (const std::string &policy : policies_) {
                const std::string key = mix.label() + "/" + policy;
                ScopedSpan cell(log, "cell:" + key);
                timedCell(out, calls, key, rounds_ * threads_,
                          [&](CellStats &st) {
                    ScopedSpan e2e(log, "e2e");
                    const MultiCoreResult r =
                        runMultiCore(mix, policy, config_);
                    for (size_t t = 0; t < r.threads.size(); ++t) {
                        st.add(threadField(t, "llc_misses"),
                               static_cast<double>(r.threads[t].llcMisses));
                        st.add(threadField(t, "ipc"), r.threads[t].ipc);
                    }
                });
            }
    }

    NameMap
    layers(const NameMap &self) const override
    {
        NameMap m = StreamWorkload::layers(self);
        m["partition.baseline_s"] = baselineS_;
        return m;
    }

    std::string
    inputs() const override
    {
        std::string out;
        for (const std::string &label : labels_)
            out += (out.empty() ? "" : ", ") + label;
        return out;
    }

  private:
    const std::vector<std::string> &streams() const override
    {
        return labels_;
    }

    std::vector<GeneratorPtr>
    generators(size_t s) const override
    {
        return instantiate(mixes_[s]);
    }

    std::unique_ptr<Cache>
    makeLlc(const std::string &policy) const override
    {
        return std::make_unique<Cache>(CacheConfig::paperLlc(threads_),
                                       makeSharedPolicy(policy, threads_));
    }

    std::string
    llcSpan(const std::string &policy) const override
    {
        return "partition.llc." + policy;
    }

    void
    addStats(CellStats &st, const Cache &llc,
             const std::vector<TimingModel> &timers) const override
    {
        for (size_t t = 0; t < timers.size(); ++t) {
            st.add(threadField(t, "llc_misses"),
                   static_cast<double>(llc.stats().threadMisses[t]));
            st.add(threadField(t, "ipc"), timers[t].ipc());
        }
    }

    MultiCoreConfig config_;
    std::vector<WorkloadSpec> mixes_;
    std::vector<std::string> labels_;
    double baselineS_ = 0.0;
};

// --- service_t16 -----------------------------------------------------------

/**
 * The service suite's 16-tenant scenario with 4 churn steps on an 8 MiB
 * LLC (paperLlc(4)) under LRU, UCP and PDP-3: open-loop Zipf tenant
 * streams, the earliest-arrival scheduler and tenant-aware partitioning.
 * The open loop runs in simulated time; the host sees one runService
 * call at a time.  The scenario's shape (footprints, skews, rates, churn
 * script) is drawn from a fixed seed and the workload seed drives every
 * tenant's stream and clock through runService: a seed-drawn shape made
 * a run's memory and cost depend on the footprints the seed drew.
 */
class Service : public Workload
{
  public:
    Service()
    {
        config_.slots = 16;
        config_.hierarchy.llc = CacheConfig::paperLlc(4);
        config_.warmup = 100'000;
        config_.accesses = 300'000;
    }

    void
    setup(uint64_t seed, SpanLog *) override
    {
        seed_ = seed;
        ServiceScenarioParams params;
        params.tenants = config_.slots;
        params.churn = 4;
        params.accesses = config_.accesses;
        tenants_ = buildServiceScenario(params, kScenarioSeed);
    }

    void
    run(std::vector<CellStats> &out, std::vector<Call> &calls,
        SpanLog *log) override
    {
        reallocs_ = 0;
        for (const std::string &policy : kPolicies) {
            ScopedSpan cell(log, "cell:" + policy);
            timedCell(out, calls, policy, requestsPerRun(),
                      [&](CellStats &st) {
                ServiceResult r;
                {
                    ScopedSpan e2e(log, "service." + policy);
                    r = runService(tenants_, policy, config_, seed_);
                }
                uint64_t requests = 0;
                PolicyTotals &totals = runTotals_[policy];
                totals = PolicyTotals{};
                for (const TenantOutcome &t : r.tenants) {
                    totals.accesses += t.llcAccesses;
                    totals.hits += t.llcHits;
                    st.add(t.name + ".requests",
                           static_cast<double>(t.requests));
                    st.add(t.name + ".llc_hits",
                           static_cast<double>(t.llcHits));
                    st.add(t.name + ".llc_misses",
                           static_cast<double>(t.llcMisses));
                    requests += t.requests;
                    if (t.llcHits + t.llcMisses != t.llcAccesses ||
                        t.llcAccesses > t.requests)
                        st.problems.push_back("tenant " + t.name +
                                              " LLC counts inconsistent");
                }
                st.add("reallocs", static_cast<double>(r.reallocs));
                if (requests != config_.accesses)
                    st.problems.push_back(
                        "tenant requests sum to " +
                        std::to_string(requests) + ", not " +
                        std::to_string(config_.accesses));
                hitRatio_[policy] = r.aggregateHitRate;
                reallocs_ += r.reallocs;
            });
        }
    }

    /** Estimate only: a round-robin of the initial tenants' streams, not
     *  the scheduler's arrival order, so nothing here is compared and an
     *  untraced call has nothing to do. */
    void
    replay(std::vector<CellStats> &, SpanLog *log) override
    {
        if (!log)
            return;
        ScopedSpan cell(log, "replay:tenants");
        const uint64_t n = requestsPerRun();
        auto makeStreams = [&](std::vector<GeneratorPtr> &gens,
                               std::vector<PoissonProcess> &clocks) {
            // Seeds, windows and slots as runService derives them for
            // the tenants present from the start.
            for (unsigned spec = 0; spec < tenants_.size(); ++spec) {
                const TenantSpec &t = tenants_[spec];
                if (t.joinAt != 0)
                    continue;
                const uint64_t streamSeed =
                    hashMix64(seed_ ^ (0x7e4a7c15u + 2u * spec));
                auto gen = std::make_unique<TenantStreamGenerator>(
                    t.name, streamSeed, t.footprintLines, t.zipfAlpha,
                    (static_cast<uint64_t>(spec) + 1) << 32, t.meanGap,
                    t.writeFrac);
                gen->setThreadId(static_cast<uint8_t>(gens.size()));
                gens.push_back(std::move(gen));
                clocks.emplace_back(hashMix64(streamSeed ^ 0xc10cc10cu),
                                    t.arrivalRate);
            }
        };
        std::vector<GeneratorPtr> gens;
        std::vector<PoissonProcess> clocks;
        makeStreams(gens, clocks);
        const uint64_t rounds = n / gens.size();
        {
            ScopedSpan pass(log, "trace.tenant");
            for (uint64_t r = 0; r < rounds; ++r)
                for (const GeneratorPtr &gen : gens)
                    g_sink += gen->next().lineAddr;
        }
        {
            ScopedSpan pass(log, "trace.clock");
            for (uint64_t r = 0; r < rounds; ++r)
                for (PoissonProcess &clock : clocks)
                    clock.advance();
        }
        gens.clear();
        clocks.clear();
        makeStreams(gens, clocks);
        const std::vector<Access> accesses = capture(gens, rounds);
        const uint64_t warmup =
            std::min<uint64_t>(config_.warmup, accesses.size());
        // The hierarchy's layers one at a time, as on the sequential
        // drivers: 16 per-slot L2s, the LLC under each policy (shared
        // policies, without the service's tenant lifecycle), and timing
        // over the LRU levels.
        {
            ScopedSpan pass(log, "cache.l2");
            walkL2(accesses, config_.slots, warmup, nullptr);
        }
        OpStream ops;
        walkL2(accesses, config_.slots, warmup, &ops);
        std::vector<uint8_t> lruLevels;
        for (const std::string &policy : kPolicies) {
            const auto llc = std::make_unique<Cache>(
                config_.hierarchy.llc,
                makeSharedPolicy(policy, config_.slots));
            std::vector<uint8_t> levels(accesses.size(), kAtL2);
            {
                ScopedSpan pass(log, llcSpan(policy));
                replayLlc(*llc, ops, levels);
            }
            if (policy == "LRU")
                lruLevels = std::move(levels);
        }
        std::vector<TimingModel> timers(config_.slots,
                                        TimingModel(config_.timing));
        {
            ScopedSpan pass(log, "sim.timing");
            replayTiming(timers, accesses, lruLevels, warmup);
        }
        replayRequests_ = accesses.size();
        measuredRequests_ = accesses.size() - warmup;
        l2Hits_ = ops.l2Hits;
        ops_ = ops.ops.size();
        writebacks_ = ops.writebacks;
    }

    NameMap
    layers(const NameMap &self) const override
    {
        const double replayed = static_cast<double>(replayRequests_);
        const double requests = static_cast<double>(requestsPerRun());
        NameMap m;
        const double tenant = at(self, "trace.tenant") / replayed;
        const double clock = at(self, "trace.clock") / replayed;
        const double timing = at(self, "sim.timing");
        const double hier = (at(self, "cache.l2") +
                             at(self, llcSpan("LRU")) + timing) / replayed;
        m["trace.tenant_ns"] = tenant;
        m["trace.clock_ns"] = clock;
        m["trace.gen_ns"] = tenant + clock;
        m["cache.l2_ns"] = at(self, "cache.l2") / replayed;
        m["sim.timing_ns"] =
            timing / static_cast<double>(measuredRequests_);
        m["cache.hier_ns"] = hier;
        boundaryRatios(m, replayRequests_, l2Hits_, ops_, writebacks_);
        LlcLedger ledger;
        for (const std::string &policy : kPolicies) {
            const double llc = at(self, llcSpan(policy));
            m[nsMetric(llcSpan(policy))] = llc / static_cast<double>(ops_);
            ledger.add(policy, llc, static_cast<double>(ops_),
                       at(runTotals_, policy));
            m["service.req_ns." + policy] =
                at(self, "service." + policy) / requests;
            m["policies.hit_ratio." + policy] = at(hitRatio_, policy);
        }
        ledger.write(m);
        const double lru = m["service.req_ns.LRU"];
        m["service.other_ns"] = lru - (tenant + clock + hier);
        m["service.reallocs"] = static_cast<double>(reallocs_);
        m["sim.closure"] = (tenant + clock + hier) / lru;
        return m;
    }

  private:
    uint64_t requestsPerRun() const { return config_.warmup + config_.accesses; }

    static std::string
    llcSpan(const std::string &policy)
    {
        return policy == "LRU" ? "cache.llc.LRU" : "partition.llc." + policy;
    }

    const std::vector<std::string> kPolicies = {"LRU", "UCP", "PDP-3"};
    static constexpr uint64_t kScenarioSeed = 1;
    ServiceConfig config_;
    uint64_t seed_ = 0;
    std::vector<TenantSpec> tenants_;
    uint64_t reallocs_ = 0;
    uint64_t replayRequests_ = 0, measuredRequests_ = 0;
    uint64_t l2Hits_ = 0, ops_ = 0, writebacks_ = 0;
    std::map<std::string, double> hitRatio_;
    /** Pooled LLC accesses and hits of the last run, per policy. */
    std::map<std::string, PolicyTotals> runTotals_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fig10")
        return std::make_unique<Fig10>();
    if (name == "explore_grid")
        return std::make_unique<ExploreGrid>();
    if (name == "fig12_4c")
        return std::make_unique<Fig12>();
    if (name == "service_t16")
        return std::make_unique<Service>();
    return nullptr;
}

// ---------------------------------------------------------------------------
// Output

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
cellsJson(const std::vector<CellStats> &cells)
{
    std::string out = "[";
    for (size_t c = 0; c < cells.size(); ++c) {
        const CellStats &cell = cells[c];
        out += (c ? ",\n" : "\n") + std::string("{\"key\": ") +
            quoted(cell.key) + ", \"error\": " + quoted(cell.error) +
            ", \"problems\": [";
        for (size_t p = 0; p < cell.problems.size(); ++p)
            out += (p ? ", " : "") + quoted(cell.problems[p]);
        out += "], \"fields\": {";
        for (size_t f = 0; f < cell.fields.size(); ++f)
            out += (f ? ", " : "") + quoted(cell.fields[f].first) + ": " +
                num(cell.fields[f].second);
        out += "}}";
    }
    return out + "]";
}

std::string
mapJson(const NameMap &m)
{
    std::string out = "{";
    for (const auto &[name, value] : m)
        out += (out.size() > 1 ? ", " : "") + quoted(name) + ": " +
            num(value);
    return out + "}";
}

uint64_t
peakRssKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = -1.0;
    bool trace = false;
    bool setupOnly = false;
    uint64_t t0Ns = 0;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        char *end = nullptr;
        if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (arg == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return false;
        } else if (arg == "--seconds" && hasValue) {
            opt.seconds = std::strtod(argv[++i], &end);
            if (*end != '\0')
                return false;
        } else if (arg == "--t0-ns" && hasValue) {
            opt.t0Ns = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return false;
        } else {
            return false;
        }
    }
    return !opt.workload.empty() && (opt.setupOnly || opt.seconds >= 0.0);
}

/** One set-up round: build a fresh workload from the seed `samples`
 *  times and return the median host time; `keep` holds the last one. */
uint64_t
setupRound(const Options &opt, unsigned samples, SpanLog *log,
           std::unique_ptr<Workload> &keep)
{
    std::vector<uint64_t> ns;
    for (unsigned s = 0; s < samples; ++s) {
        const uint64_t start = nowNs();
        keep = makeWorkload(opt.workload);
        keep->setup(opt.seed, log);
        ns.push_back(nowNs() - start);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t entryNs = nowNs();
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: pdp_perfbench --workload NAME --seed N "
                     "--seconds S [--trace] [--setup-only] [--t0-ns NS]\n");
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(opt.workload);
    if (!workload) {
        std::fprintf(stderr, "pdp_perfbench: unknown workload %s\n",
                     opt.workload.c_str());
        return 2;
    }

    // The host-speed reference walk runs after each rep, so it samples the
    // host across the whole run; the traced run reports no time metric
    // and skips it.  Its tag
    // store is allocated before the set-up, so it is resident at the
    // process's peak whenever that comes, and peak RSS leaves it out.
    HostReference reference;
    uint64_t referenceNs = ~0ull;

    // Set-up: the first round builds the workload that runs.  When a
    // workload can set up more than once per process, another round
    // follows every rep, and setup_s is the fastest round of the run, as
    // maccess_per_s takes each call's fastest time: the host's speed
    // drifts by a third in stretches of seconds, and back-to-back set-ups
    // of a few microseconds all land in one stretch.  Program load (the
    // parent's clock before the spawn to main()) is reported apart.
    SpanLog spans;
    SpanLog *log = opt.trace ? &spans : nullptr;
    const unsigned samples = workload->setupSamples();
    uint64_t setupNs = 0;
    try {
        setupNs = setupRound(opt, samples, log, workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pdp_perfbench: set-up failed: %s\n", e.what());
        return 1;
    }
    const uint64_t setupEnd = nowNs();
    const double loadS =
        opt.t0Ns ? static_cast<double>(entryNs - opt.t0Ns) / 1e9 : 0.0;
    if (opt.setupOnly) {
        referenceNs = reference.fastest(kReferenceWalks);
        std::printf("{\"setup_s\": %s, \"setup_rounds\": 1, \"load_s\": %s, "
                    "\"reference_ns\": %llu}\n",
                    num(static_cast<double>(setupNs) / 1e9).c_str(),
                    num(loadS).c_str(),
                    static_cast<unsigned long long>(referenceNs));
        return 0;
    }
    unsigned setupRounds = 1;

    // Reps: the whole workload, repeated until --seconds have passed.  Each
    // rep reports every simulation call's accesses and host time.
    std::vector<CellStats> cells;
    std::string reps;
    std::string layerReps;
    uint64_t rssKib = 0;
    try {
        const uint64_t budget = static_cast<uint64_t>(opt.seconds * 1e9);
        unsigned rep = 0;
        do {
            std::vector<CellStats> repCells;
            std::vector<CellStats> replayed;
            std::vector<Call> calls;
            const size_t firstSpan = spans.spans().size();
            {
                ScopedSpan root(log, opt.workload);
                workload->run(repCells, calls, log);
                if (log)
                    workload->replay(replayed, log);
            }
            reps += rep ? ",\n[" : "\n[";
            for (size_t c = 0; c < calls.size(); ++c)
                reps += (c ? ", [" : "[") +
                    std::to_string(calls[c].accesses) + ", " +
                    std::to_string(calls[c].ns) + "]";
            reps += "]";
            if (rep == 0)
                cells = std::move(repCells);
            else
                crossCheck(cells, repCells, "rep " + std::to_string(rep));
            if (!log)
                referenceNs =
                    std::min(referenceNs, reference.fastest(kWalksPerRep));
            if (log) {
                if (!replayed.empty())
                    crossCheck(cells, replayed, "traced replay");
                layerReps += (rep ? ",\n" : "\n") +
                    mapJson(workload->layers(
                        selfTimes(spans.spans(), firstSpan)));
            }
            ++rep;
            if (samples > 1) {
                std::unique_ptr<Workload> spare;
                setupNs = std::min(setupNs,
                                   setupRound(opt, samples, nullptr, spare));
                ++setupRounds;
            }
        } while (nowNs() - setupEnd < budget);
        // Read before the reference pass, whose captured streams are the
        // benchmark's memory, not the simulator's; so is the walk's tag
        // store.
        rssKib = peakRssKib() - reference.kib();

        if (!log) {
            // Reference pass: the outside-in replay must reproduce every
            // replayable cell of the timed reps.
            std::vector<CellStats> replayed;
            workload->replay(replayed, nullptr);
            if (!replayed.empty())
                crossCheck(cells, replayed, "reference replay");
        }
    } catch (const std::exception &e) {
        // Cells catch their own failures; this is the harness failing.
        std::fprintf(stderr, "pdp_perfbench: %s\n", e.what());
        return 1;
    }

    std::string out = "{\"workload\": " + quoted(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"inputs\": " + quoted(workload->inputs()) +
        ", \"setup_s\": " + num(static_cast<double>(setupNs) / 1e9) +
        ", \"setup_rounds\": " + std::to_string(setupRounds) +
        ", \"load_s\": " + num(loadS) +
        ", \"reference_ns\": " + std::to_string(log ? 0 : referenceNs) +
        ", \"reps\": [" + reps + "]" +
        ", \"peak_rss_kib\": " + std::to_string(rssKib) +
        ", \"sink\": " + std::to_string(g_sink) +
        ", \"cells\": " + cellsJson(cells);
    if (log) {
        out += ", \"notes\": [";
        const std::vector<std::string> notes = workload->notes();
        for (size_t i = 0; i < notes.size(); ++i)
            out += (i ? ", " : "") + quoted(notes[i]);
        out += "], \"layers\": [" + layerReps + "], \"spans\": [";
        const auto &all = spans.spans();
        for (size_t i = 0; i < all.size(); ++i)
            out += (i ? ",\n" : "\n") + std::string("[") +
                quoted(all[i].name) + ", " + std::to_string(all[i].start) +
                ", " + std::to_string(all[i].end) + ", " +
                std::to_string(all[i].parent) + "]";
        out += "]";
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}
