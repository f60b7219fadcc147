/**
 * @file
 * Unit tests for the base utilities: RNG determinism and distribution,
 * formatting helpers, and source-location capture.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "base/fmt.hh"
#include "base/rng.hh"
#include "base/source_loc.hh"

using namespace goat;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    std::set<uint64_t> vals;
    for (int i = 0; i < 100; ++i)
        vals.insert(r.next64());
    EXPECT_GT(vals.size(), 95u);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng r(7);
    for (int bound : {1, 2, 3, 10, 1000}) {
        for (int i = 0; i < 200; ++i) {
            uint64_t v = r.nextBelow(bound);
            EXPECT_LT(v, static_cast<uint64_t>(bound));
        }
    }
}

TEST(Rng, NextBelowRoughlyUniform)
{
    Rng r(13);
    std::map<uint64_t, int> counts;
    const int n = 60000, k = 6;
    for (int i = 0; i < n; ++i)
        counts[r.nextBelow(k)]++;
    for (int i = 0; i < k; ++i) {
        EXPECT_GT(counts[i], n / k * 0.9);
        EXPECT_LT(counts[i], n / k * 1.1);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Fmt, StrFormatBasics)
{
    EXPECT_EQ(strFormat("a%db", 7), "a7b");
    EXPECT_EQ(strFormat("%s-%s", "x", "y"), "x-y");
    EXPECT_EQ(strFormat("%%"), "%");
}

TEST(Fmt, StrFormatLongOutput)
{
    std::string long_in(5000, 'z');
    EXPECT_EQ(strFormat("%s", long_in.c_str()).size(), 5000u);
}

TEST(Fmt, JoinAndSplitRoundTrip)
{
    std::vector<std::string> parts = {"a", "bb", "", "c"};
    std::string joined = strJoin(parts, ",");
    EXPECT_EQ(joined, "a,bb,,c");
    EXPECT_EQ(strSplit(joined, ','), parts);
}

TEST(Fmt, SplitSingleField)
{
    EXPECT_EQ(strSplit("abc", ','), std::vector<std::string>{"abc"});
}

TEST(Fmt, Trim)
{
    EXPECT_EQ(strTrim("  x y \t\n"), "x y");
    EXPECT_EQ(strTrim(""), "");
    EXPECT_EQ(strTrim("   "), "");
}

TEST(Fmt, StartsWith)
{
    EXPECT_TRUE(strStartsWith("foobar", "foo"));
    EXPECT_FALSE(strStartsWith("fo", "foo"));
    EXPECT_TRUE(strStartsWith("x", ""));
}

TEST(Fmt, PathBasename)
{
    EXPECT_EQ(pathBasename("/a/b/c.cc"), "c.cc");
    EXPECT_EQ(pathBasename("c.cc"), "c.cc");
    EXPECT_EQ(pathBasename("/a/b/"), "");
}

TEST(Fmt, ParseNumTakesOneWholeToken)
{
    int i = 0;
    EXPECT_TRUE(parseNum("-12", &i));
    EXPECT_EQ(i, -12);
    for (const char *bad : {"", "12x", " 12", "+12", "1e3", "99999999999"})
        EXPECT_FALSE(parseNum(bad, &i)) << bad;
    uint64_t u = 0;
    EXPECT_TRUE(parseNum("ff", &u, 16));
    EXPECT_EQ(u, 255u);
    EXPECT_FALSE(parseNum("zz", &u, 16));
    double d = 0;
    EXPECT_TRUE(parseNum("0.125", &d));
    EXPECT_EQ(d, 0.125);
    EXPECT_FALSE(parseNum("0.1x", &d));
}

TEST(Fmt, ParseNumBaseZeroTakesStrtoullPrefixes)
{
    uint64_t u = 0;
    EXPECT_TRUE(parseNum("0x10", &u, 0));
    EXPECT_EQ(u, 16u);
    EXPECT_TRUE(parseNum("0X1f", &u, 0));
    EXPECT_EQ(u, 31u);
    EXPECT_TRUE(parseNum("010", &u, 0));
    EXPECT_EQ(u, 8u);
    EXPECT_TRUE(parseNum("0", &u, 0));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseNum("19", &u, 0));
    EXPECT_EQ(u, 19u);
    for (const char *bad : {"0x", "08", "0x1g", "12x", "-1"})
        EXPECT_FALSE(parseNum(bad, &u, 0)) << bad;
}

TEST(SourceLoc, CurrentCapturesCaller)
{
    SourceLoc loc = SourceLoc::current();
    EXPECT_EQ(loc.basename(), "test_base.cc");
    EXPECT_GT(loc.line, 0u);
}

TEST(SourceLoc, DefaultArgumentCapturesCallSite)
{
    auto f = [](SourceLoc loc = SourceLoc::current()) { return loc; };
    SourceLoc a = f();
    SourceLoc b = f();
    EXPECT_EQ(a.basename(), "test_base.cc");
    // Both calls are on distinct lines.
    EXPECT_NE(a.line, b.line);
}

TEST(SourceLoc, EqualityAndOrdering)
{
    SourceLoc a("x.cc", 3), b("x.cc", 3), c("x.cc", 4), d("y.cc", 1);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a < c);
    EXPECT_TRUE(a < d);
    EXPECT_FALSE(d < a);
}

TEST(SourceLoc, StrRendering)
{
    SourceLoc a("/long/path/x.cc", 12);
    EXPECT_EQ(a.str(), "x.cc:12");
}
