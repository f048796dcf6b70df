/**
 * @file
 * Unit tests for the support library: logging, random, stats, tables.
 */

#include <gtest/gtest.h>

#include <set>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/types.hh"

namespace genesys
{
namespace
{

// ---------------------------------------------------------------- logging

TEST(Logging, FormatProducesPrintfOutput)
{
    EXPECT_EQ(logging::format("x=%d s=%s", 7, "hi"), "x=7 s=hi");
}

TEST(Logging, FormatHandlesLongStrings)
{
    const std::string big(10000, 'q');
    EXPECT_EQ(logging::format("%s", big.c_str()), big);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(Logging, FatalMessagePreserved)
{
    try {
        fatal("bad config: %s", "nofile");
        FAIL() << "fatal returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: nofile");
    }
}

TEST(Logging, AssertMacroPassesAndFails)
{
    EXPECT_NO_THROW(GENESYS_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(GENESYS_ASSERT(false, "nope %d", 3), PanicError);
}

// ------------------------------------------------------------------ types

TEST(Types, TickUnitConversions)
{
    EXPECT_EQ(ticks::us(3), 3000u);
    EXPECT_EQ(ticks::ms(2), 2'000'000u);
    EXPECT_EQ(ticks::sec(1), 1'000'000'000u);
    EXPECT_DOUBLE_EQ(ticks::toUs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticks::toSec(ticks::sec(4)), 4.0);
}

TEST(Types, SizeLiterals)
{
    using namespace size_literals;
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Types, TransferTicksMatchesBandwidth)
{
    // 1 GiB/s => 1 byte per ~1 ns.
    EXPECT_EQ(transferTicks(1000, 1e9), 1000u);
    // Sub-nanosecond transfers round up to one tick.
    EXPECT_EQ(transferTicks(1, 100e9), 1u);
    EXPECT_EQ(transferTicks(0, 1e9), 0u);
}

// ----------------------------------------------------------------- random

TEST(Random, DeterministicForSameSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Random, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Random, BelowCoversRange)
{
    Random r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, BetweenInclusive)
{
    Random r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, LowerAlphaShapeAndCharset)
{
    Random r(3);
    const auto s = r.lowerAlpha(64);
    EXPECT_EQ(s.size(), 64u);
    for (char c : s)
        EXPECT_TRUE(c >= 'a' && c <= 'z');
}

// ------------------------------------------------------------------ stats

TEST(Stats, DistributionMoments)
{
    stats::Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stdev(), 2.138, 1e-3);
}

TEST(Stats, DistributionPercentiles)
{
    stats::Distribution d;
    for (int i = 0; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    EXPECT_NEAR(d.percentile(95), 95.0, 1e-9);
}

TEST(Stats, DistributionPercentileOutOfRangePanics)
{
    stats::Distribution d;
    d.sample(1.0);
    EXPECT_THROW(d.percentile(101), PanicError);
}

TEST(Stats, EmptyDistributionIsSafe)
{
    stats::Distribution d;
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stdev(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const auto out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, NumericRowHelper)
{
    TextTable t;
    t.setHeader({"label", "x", "y"});
    t.addRow("row", {1.23456, 7.0}, 2);
    const auto csv = t.renderCsv();
    EXPECT_NE(csv.find("row,1.23,7.00"), std::string::npos);
}

TEST(Table, CsvHasHeaderAndRows)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n");
}

} // namespace
} // namespace genesys
