/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All stochastic behaviour in soefair (workload generation, cache
 * replacement tie-breaks, ...) draws from instances of Rng, a
 * xorshift64* generator. The standard library engines are avoided so
 * that streams are bit-reproducible across platforms and library
 * versions; reproducibility is a property the fairness estimator
 * tests rely on (a thread's instruction stream must be identical
 * whether it runs alone or under SOE).
 */

#ifndef SOEFAIR_SIM_RANDOM_HH
#define SOEFAIR_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace soefair
{

/**
 * xorshift64* pseudo random number generator.
 *
 * Small (8 bytes of state), fast, and good enough for workload
 * synthesis. A zero seed is remapped to a fixed non-zero constant
 * because the all-zero state is a fixed point of the xorshift map.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound); bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        soefair_assert(bound > 0, "Rng::below with zero bound");
        // Modulo bias is negligible for our bounds (<< 2^64) and
        // irrelevant for workload synthesis.
        return next() % bound;
    }

    /** Uniform in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        soefair_assert(lo <= hi, "Rng::inRange with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        // 53 high-quality bits -> double mantissa.
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /**
     * Integer form of a probability for the hot draws below. real()
     * is k·2⁻⁵³ for the integer k = next() >> 11, and that product
     * is exact, so real() < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉: comparing
     * k against this bound consumes the same draw and gives the
     * same answer as the floating-point test, for every p.
     */
    static std::uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0; // also NaN: real() < NaN is false
        if (p >= 1.0)
            return oneBound;
        return std::uint64_t(std::ceil(std::ldexp(p, 53)));
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return real() < p; }

    /** chance(p) for bound == threshold(p). */
    bool chanceBelow(std::uint64_t bound) { return (next() >> 11) < bound; }

    /**
     * Geometric draw: number of failures before the first success,
     * success probability p. Returns values in [0, cap].
     */
    std::uint64_t
    geometric(double p, std::uint64_t cap = 1u << 20)
    {
        soefair_assert(p > 0.0 && p <= 1.0, "geometric p out of range");
        return geometricBelow(threshold(p), cap);
    }

    /**
     * geometric(p, cap) for bound == threshold(p); the caller checks
     * p ∈ (0, 1] when it computes the bound.
     */
    std::uint64_t
    geometricBelow(std::uint64_t bound, std::uint64_t cap)
    {
        std::uint64_t n = 0;
        while (n < cap && !chanceBelow(bound))
            ++n;
        return n;
    }

    /** Raw state access (tests compare generators by it). */
    std::uint64_t rawState() const { return state; }
    void setRawState(std::uint64_t s) { state = s ? s : 1; }

  private:
    /** threshold(1): every k = next() >> 11 lies below it. */
    static constexpr std::uint64_t oneBound = std::uint64_t(1) << 53;

    std::uint64_t state;
};

/**
 * Sampler over a fixed discrete distribution (cumulative table).
 *
 * Built once from weights. A draw takes k = next() >> 11 and returns
 * the first outcome i with k ≤ ⌊cᵢ·2⁵³⌋, where cᵢ is the normalised
 * cumulative weight. Since real() = k·2⁻⁵³ exactly, that is the
 * first i with cᵢ ≥ real(): the index std::lower_bound over the
 * cumulative doubles would give, without converting the draw. The
 * search is linear; the samplers here have at most nine outcomes.
 */
class DiscreteSampler
{
  public:
    DiscreteSampler() = default;

    /** @param weights Non-negative weights; at least one positive. */
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Draw an index distributed according to the weights. */
    std::size_t
    sample(Rng &rng) const
    {
        soefair_assert(!bounds.empty(), "sampling empty DiscreteSampler");
        const std::uint64_t k = rng.next() >> 11;
        // bounds is non-decreasing, so the first i with k <= bounds[i]
        // is the number of bounds below k; counting them needs no
        // data-dependent branch. k < 2⁵³ = bounds.back() keeps i in
        // range.
        std::size_t i = 0;
        for (std::uint64_t b : bounds)
            i += k > b;
        return i;
    }

    /** Number of outcomes. */
    std::size_t size() const { return cumulative.size(); }

    /** Probability assigned to outcome i. */
    double probability(std::size_t i) const;

  private:
    std::vector<double> cumulative;
    /** ⌊cumulative[i]·2⁵³⌋; non-decreasing, last is 2⁵³. */
    std::vector<std::uint64_t> bounds;
};

/**
 * Mix a 64-bit value into a well-distributed hash (splitmix64
 * finalizer). Used to derive independent sub-seeds from a master
 * seed plus a stream id.
 */
std::uint64_t mix64(std::uint64_t x);

/** Derive a child seed from a parent seed and a stream identifier. */
inline std::uint64_t
deriveSeed(std::uint64_t parent, std::uint64_t stream)
{
    return mix64(parent ^ mix64(stream + 0x9e3779b97f4a7c15ull));
}

} // namespace soefair

#endif // SOEFAIR_SIM_RANDOM_HH
