#include "harness/env.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace soefair
{
namespace harness
{
namespace env
{

std::optional<std::string>
get(const char *name)
{
    // The one getenv of the tree (DET-002): every environment read
    // funnels through it.
    const char *v = std::getenv(name);
    if (!v)
        return std::nullopt;
    return std::string(v);
}

std::string
getOr(const char *name, const std::string &fallback)
{
    const auto v = get(name);
    return v ? *v : fallback;
}

std::optional<bool>
getBool(const char *name)
{
    const auto v = get(name);
    if (!v)
        return std::nullopt;
    return !(*v == "0" || *v == "off" || *v == "OFF" ||
             *v == "false");
}

std::optional<double>
getDouble(const char *name)
{
    const auto v = get(name);
    if (!v)
        return std::nullopt;
    char *end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || (end && *end != '\0')) {
        warn("ignoring unparsable ", name, "='", *v, "'");
        return std::nullopt;
    }
    if (!std::isfinite(d)) {
        warn("ignoring non-finite ", name, "='", *v, "'");
        return std::nullopt;
    }
    return d;
}

std::optional<unsigned>
getUnsigned(const char *name)
{
    const auto v = get(name);
    if (!v)
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long u = std::strtoull(v->c_str(), &end, 10);
    if (end == v->c_str() || (end && *end != '\0')) {
        warn("ignoring unparsable ", name, "='", *v, "'");
        return std::nullopt;
    }
    // strtoull negates "-1" into a huge value; an unsigned cast would
    // then truncate anything above UINT_MAX.
    if (v->find('-') != std::string::npos || errno == ERANGE ||
        u > UINT_MAX) {
        warn("ignoring out-of-range ", name, "='", *v, "'");
        return std::nullopt;
    }
    return unsigned(u);
}

} // namespace env
} // namespace harness
} // namespace soefair
