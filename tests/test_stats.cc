/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/logging.hh"
#include "stats/stats.hh"

using namespace soefair::statistics;

TEST(Stats, CounterBasics)
{
    Group g("root");
    Counter c(&g, "hits", "hit count");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    Group g("root");
    Average a(&g, "lat", "latency");
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 10.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 30.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, AverageEmptyIsZero)
{
    Group g("root");
    Average a(&g, "lat", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 0.0);
}

TEST(Stats, HistogramBucketsPowersOfTwo)
{
    Group g("root");
    Histogram h(&g, "lat", "latency", 8);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4);
    h.sample(1000);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u); // 0 and 1
    EXPECT_EQ(h.bucket(1), 2u); // 2 and 3
    EXPECT_EQ(h.bucket(2), 1u); // 4
    // 1000 would land in bucket 9, clamps to the last (7).
    EXPECT_EQ(h.bucket(7), 1u);
    EXPECT_NEAR(h.mean(), (0 + 1 + 2 + 3 + 4 + 1000) / 6.0, 1e-9);
}

TEST(Stats, GroupPathAndDump)
{
    Group root("sys");
    Group child("cache", &root);
    Counter c(&child, "hits", "hits in the cache");
    c += 42;
    EXPECT_EQ(child.path(), "sys.cache");

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("hits in the cache"), std::string::npos);
}

TEST(Stats, ResetRecurses)
{
    Group root("sys");
    Group child("c", &root);
    Counter a(&root, "a", "");
    Counter b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetStats();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(Stats, ChildRemovalOnDestruction)
{
    Group root("sys");
    {
        Group child("gone", &root);
        Counter c(&child, "x", "");
    }
    // Dump after the child died must not touch freed memory.
    std::ostringstream os;
    root.dump(os);
    EXPECT_EQ(os.str().find("gone"), std::string::npos);
}

TEST(Stats, DuplicateNamesInOneGroupPanic)
{
    Group root("sys");
    Group cache("cache", &root);
    Counter hits(&cache, "hits", "demand hits");
    EXPECT_THROW(Counter(&cache, "hits", "aliases an existing name"),
                 soefair::PanicError);
    // A child group and a stat, or two children, sharing a name
    // collide in the dump paths just the same.
    EXPECT_THROW(Counter(&root, "cache", "shadows the child"),
                 soefair::PanicError);
    EXPECT_THROW(Group("hits", &cache), soefair::PanicError);
    EXPECT_THROW(Group("cache", &root), soefair::PanicError);
    // The same name under a different group is fine.
    Counter otherHits(&root, "hits", "same name, different group");
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(os.str().find("sys.hits"), std::string::npos);
}
