#include "sim/random.hh"

#include <cmath>

namespace soefair
{

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    soefair_assert(!weights.empty(), "DiscreteSampler with no weights");
    cumulative.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
        soefair_assert(w >= 0.0, "DiscreteSampler negative weight");
        total += w;
        cumulative.push_back(total);
    }
    soefair_assert(total > 0.0, "DiscreteSampler all-zero weights");
    for (double &c : cumulative)
        c /= total;
    cumulative.back() = 1.0;
    bounds.reserve(cumulative.size());
    for (double c : cumulative)
        bounds.push_back(std::uint64_t(std::ldexp(c, 53)));
}

double
DiscreteSampler::probability(std::size_t i) const
{
    soefair_assert(i < cumulative.size(), "probability index out of range");
    return i == 0 ? cumulative[0] : cumulative[i] - cumulative[i - 1];
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace soefair
