/**
 * @file
 * Unit tests for the utility layer: RNG determinism and distribution
 * sanity, saturating counters, bit helpers, statistics accumulators and
 * the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/bitutil.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/sat_counter.h"
#include "util/stats.h"
#include "util/table.h"

using namespace pdp;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(99);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(42);
    const uint64_t first = rng.next();
    rng.next();
    rng.reseed(42);
    EXPECT_EQ(rng.next(), first);
}

TEST(SatCounter, SaturatesAtMax)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesAtZero)
{
    SatCounter c(3, 2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, MsbThreshold)
{
    SatCounter c(10, 0);
    EXPECT_FALSE(c.msbSet());
    c.set(511); // max/2
    EXPECT_FALSE(c.msbSet());
    c.set(512);
    EXPECT_TRUE(c.msbSet());
}

TEST(SatCounter, IncrementByAmountClamps)
{
    SatCounter c(4, 10);
    c.increment(100);
    EXPECT_EQ(c.value(), 15u);
    c.decrement(100);
    EXPECT_EQ(c.value(), 0u);
}

TEST(BitUtil, Log2Helpers)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(2048), 11u);
    EXPECT_EQ(ceilLog2(2048), 11u);
    EXPECT_EQ(ceilLog2(2049), 12u);
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(4095));
    EXPECT_EQ(ceilDiv(7, 3), 3u);
    EXPECT_EQ(ceilDiv(6, 3), 2u);
}

TEST(BitUtil, FoldXorStaysInWidth)
{
    for (uint64_t v : {0ull, 1ull, 0xdeadbeefcafebabeull, ~0ull})
        EXPECT_LT(foldXor(v, 16), 1u << 16);
}

TEST(Stats, AccumulatorBasics)
{
    Accumulator acc;
    acc.add(1.0);
    acc.add(3.0);
    acc.add(2.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(acc.maximum(), 3.0);
}

TEST(Stats, HistogramOverflow)
{
    Histogram h(4);
    h.add(0);
    h.add(3);
    h.add(4); // overflow
    h.add(100);
    EXPECT_EQ(h.at(0), 1u);
    EXPECT_EQ(h.at(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, Log2HistogramBucketsAndEdges)
{
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(50), 6u);   // [32, 64)
    EXPECT_EQ(Log2Histogram::bucketOf(168), 8u);  // [128, 256)
    EXPECT_EQ(Log2Histogram::upperEdge(0), 0u);
    EXPECT_EQ(Log2Histogram::upperEdge(6), 63u);
    EXPECT_EQ(Log2Histogram::upperEdge(8), 255u);
}

TEST(Stats, Log2HistogramQuantileIsResolutionHonest)
{
    Log2Histogram h;
    EXPECT_EQ(h.quantile(0.99), 0u); // empty => 0
    // The timing model's two charged miss costs: 99 overlapped (50
    // cycles, bucket edge 63) and 1 exposed (168 cycles, edge 255).
    for (int i = 0; i < 99; ++i)
        h.add(50);
    const Log2Histogram base = h;
    h.add(168);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.quantile(0.50), 63u);
    EXPECT_EQ(h.quantile(0.99), 63u);  // rank 99 still in the 50s
    EXPECT_EQ(h.quantile(0.995), 255u);
    EXPECT_EQ(h.quantile(1.0), 255u);
    // since() keeps only what was added after the baseline copy.
    const Log2Histogram delta = h.since(base);
    EXPECT_EQ(delta.count(), 1u);
    EXPECT_EQ(delta.quantile(0.99), 255u);
    EXPECT_EQ(h.since(h).quantile(0.99), 0u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Table, PercentFormatting)
{
    EXPECT_EQ(Table::pct(0.042), "+4.2%");
    EXPECT_EQ(Table::pct(-0.01), "-1.0%");
    EXPECT_EQ(Table::upct(0.5), "50.0%");
}

// ---------------------------------------------------------------------------
// Strict whole-string numeric parsing (util/parse.h).

TEST(Parse, UnsignedAcceptsOnlyWholeDecimalStrings)
{
    EXPECT_EQ(parseUnsigned("0"), 0ul);
    EXPECT_EQ(parseUnsigned("42"), 42ul);
    EXPECT_EQ(parseUnsigned("4096"), 4096ul);

    // The null-endptr strtoul idiom accepted all of these silently.
    EXPECT_FALSE(parseUnsigned("abc").has_value());
    EXPECT_FALSE(parseUnsigned("5x").has_value());
    EXPECT_FALSE(parseUnsigned("").has_value());
    EXPECT_FALSE(parseUnsigned(nullptr).has_value());
    EXPECT_FALSE(parseUnsigned("-1").has_value());
    EXPECT_FALSE(parseUnsigned("+1").has_value());
    EXPECT_FALSE(parseUnsigned(" 1").has_value());
    EXPECT_FALSE(parseUnsigned("1 ").has_value());
    EXPECT_FALSE(parseUnsigned("99999999999999999999999").has_value());
}

TEST(Parse, DoubleAcceptsOnlyWholeFiniteStrings)
{
    EXPECT_EQ(parseDouble("0.5"), 0.5);
    EXPECT_EQ(parseDouble("10"), 10.0);
    EXPECT_EQ(parseDouble("1e3"), 1000.0);
    EXPECT_EQ(parseDouble("-2.5"), -2.5);

    EXPECT_FALSE(parseDouble("5x").has_value());
    EXPECT_FALSE(parseDouble("abc").has_value());
    EXPECT_FALSE(parseDouble("").has_value());
    EXPECT_FALSE(parseDouble(nullptr).has_value());
    EXPECT_FALSE(parseDouble("1.0.0").has_value());
    EXPECT_FALSE(parseDouble("nan").has_value());
    EXPECT_FALSE(parseDouble("inf").has_value());
    EXPECT_FALSE(parseDouble("1e999").has_value());
}
