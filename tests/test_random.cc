/** @file Unit tests for the deterministic RNG and samplers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

using soefair::deriveSeed;
using soefair::DiscreteSampler;
using soefair::mix64;
using soefair::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
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

TEST(Rng, ZeroSeedIsRemapped)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroPanics)
{
    Rng r(7);
    EXPECT_THROW(r.below(0), soefair::PanicError);
}

TEST(Rng, InRangeInclusive)
{
    Rng r(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.inRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        sawLo = sawLo || v == 3;
        sawHi = sawHi || v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, RealIsUniformish)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng r(17);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += double(r.geometric(p));
    // mean of geometric (failures before success) = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, StateRoundTrip)
{
    Rng a(23);
    a.next();
    a.next();
    Rng b;
    b.setRawState(a.rawState());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

namespace
{

/** The probabilities the integer-draw equivalence is pinned at. */
const std::vector<double> &
edgeProbabilities()
{
    static const std::vector<double> ps = {
        0.0, std::ldexp(1.0, -53), 0.25, 1.0 / 3.0, 0.35,
        1.0 - std::ldexp(1.0, -53), 1.0};
    return ps;
}

/**
 * An Rng whose next draw has next() >> 11 == k (k > 0), found by
 * running xorshift64* backwards: undo the output multiply, then the
 * three xorshift steps in reverse order.
 */
Rng
rngYielding(std::uint64_t k)
{
    constexpr std::uint64_t mult = 0x2545f4914f6cdd1dull;
    std::uint64_t inv = mult; // Newton: doubles the correct bits
    for (int i = 0; i < 6; ++i)
        inv *= 2 - mult * inv;
    std::uint64_t x = (k << 11) * inv;
    x ^= (x >> 27) ^ (x >> 54);
    x ^= (x << 25) ^ (x << 50);
    x ^= (x >> 12) ^ (x >> 24) ^ (x >> 36) ^ (x >> 48) ^ (x >> 60);
    Rng r;
    r.setRawState(x);
    return r;
}

} // namespace

TEST(Rng, YieldingHelperHitsItsTarget)
{
    for (std::uint64_t k : {std::uint64_t(1), std::uint64_t(12345),
                            (std::uint64_t(1) << 53) - 1}) {
        Rng r = rngYielding(k);
        EXPECT_EQ(r.next() >> 11, k);
    }
}

TEST(Rng, ThresholdIsExactAtItsBoundary)
{
    // chanceBelow(threshold(p)) must agree with real() < p for draws
    // on both sides of the bound, where a rounding slip or an
    // off-by-one comparison would show. Random draws almost never
    // land there, so the draws are forced.
    const std::uint64_t kMax = (std::uint64_t(1) << 53) - 1;
    for (double p : edgeProbabilities()) {
        const std::uint64_t t = Rng::threshold(p);
        for (std::uint64_t k : {t - 2, t - 1, t, t + 1}) {
            if (k == 0 || k > kMax)
                continue; // wrapped, past the last draw, or unreachable
            Rng fast = rngYielding(k), ref = rngYielding(k);
            EXPECT_EQ(fast.chanceBelow(t), ref.real() < p)
                << "p " << p << " k " << k;
        }
    }
    EXPECT_EQ(Rng::threshold(0.0), 0u);
    EXPECT_EQ(Rng::threshold(1.0), kMax + 1);
}

TEST(Rng, ThresholdChanceMatchesRealComparison)
{
    for (double p : edgeProbabilities()) {
        const std::uint64_t t = Rng::threshold(p);
        Rng fast(101), ref(101);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(fast.chanceBelow(t), ref.real() < p) << "p " << p;
        EXPECT_EQ(fast.rawState(), ref.rawState()) << "p " << p;
    }
}

TEST(Rng, ThresholdGeometricMatchesRealLoop)
{
    for (double p : edgeProbabilities()) {
        const std::uint64_t t = Rng::threshold(p);
        for (std::uint64_t cap : {std::uint64_t(39), std::uint64_t(1) << 20}) {
            if (p < 0.25 && cap > 39)
                continue; // the reference would run ~1/p draws a call
            Rng fast(103), ref(103);
            for (int i = 0; i < 100000; ++i) {
                std::uint64_t n = 0;
                while (n < cap && !(ref.real() < p))
                    ++n;
                ASSERT_EQ(fast.geometricBelow(t, cap), n)
                    << "p " << p << " cap " << cap;
            }
            EXPECT_EQ(fast.rawState(), ref.rawState()) << "p " << p;
        }
        if (p > 0.0) {
            // The checked public form takes the same path.
            Rng a(107), b(107);
            for (int i = 0; i < 1000; ++i)
                ASSERT_EQ(a.geometric(p, 39), b.geometricBelow(t, 39));
        }
    }
}

TEST(Rng, GeometricRejectsOutOfRangeP)
{
    Rng r(109);
    EXPECT_THROW(r.geometric(0.0), soefair::PanicError);
    EXPECT_THROW(r.geometric(1.5), soefair::PanicError);
}

TEST(DiscreteSampler, MatchesLowerBoundReference)
{
    const std::vector<std::vector<double>> weightSets = {
        {0.0, 1.0, 3.0, 6.0},             // zero first
        {1.0, 0.0, 0.0, 2.0, 5.0},        // zeros in the middle
        {2.0, 1.0, 4.0, 0.0},             // zero last
        {0.9, 0.0, 0.0, 0.25, 0.22, 0.0, 0.30, 0.12, 0.0}, // a phase mix
        {1.0, 1.0, 1.0},
        {7.0},
    };
    for (const auto &w : weightSets) {
        // The constructor's normalisation, replayed.
        std::vector<double> cum;
        double total = 0.0;
        for (double x : w) {
            total += x;
            cum.push_back(total);
        }
        for (double &c : cum)
            c /= total;
        cum.back() = 1.0;

        DiscreteSampler s(w);
        auto reference = [&](Rng &r) {
            const double u = r.real();
            auto it = std::lower_bound(cum.begin(), cum.end(), u);
            if (it == cum.end())
                --it;
            return std::size_t(it - cum.begin());
        };

        // Draws forced onto and beside every bucket edge.
        for (double c : cum) {
            const auto edge = std::uint64_t(std::ldexp(c, 53));
            for (std::uint64_t k : {edge - 1, edge, edge + 1}) {
                if (k == 0 || k >= (std::uint64_t(1) << 53))
                    continue;
                Rng fast = rngYielding(k), ref = rngYielding(k);
                EXPECT_EQ(s.sample(fast), reference(ref))
                    << "k " << k << " of a " << w.size() << "-way sampler";
            }
        }

        Rng fast(211), ref(211);
        for (int i = 0; i < 1000000; ++i) {
            ASSERT_EQ(s.sample(fast), reference(ref))
                << "draw " << i << " of a " << w.size() << "-way sampler";
        }
        EXPECT_EQ(fast.rawState(), ref.rawState());
    }
}

TEST(DiscreteSampler, RespectsWeights)
{
    DiscreteSampler s({1.0, 3.0, 0.0, 6.0});
    Rng r(31);
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(r)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.01);
}

TEST(DiscreteSampler, ProbabilityAccessor)
{
    DiscreteSampler s({2.0, 2.0, 4.0});
    EXPECT_NEAR(s.probability(0), 0.25, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.25, 1e-12);
    EXPECT_NEAR(s.probability(2), 0.5, 1e-12);
}

TEST(DiscreteSampler, RejectsBadWeights)
{
    EXPECT_THROW(DiscreteSampler(std::vector<double>{}),
                 soefair::PanicError);
    EXPECT_THROW(DiscreteSampler({0.0, 0.0}), soefair::PanicError);
    EXPECT_THROW(DiscreteSampler({1.0, -1.0}), soefair::PanicError);
}

TEST(Mix64, DistinctInputsDistinctOutputs)
{
    // Sanity: no collisions among small consecutive inputs.
    std::vector<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.push_back(mix64(i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DeriveSeed, IndependentStreams)
{
    // Children of the same parent with different stream ids differ.
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
    // And are stable.
    EXPECT_EQ(deriveSeed(99, 7), deriveSeed(99, 7));
}
