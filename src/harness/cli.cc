#include "harness/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace soefair
{
namespace harness
{

CliOptions::CliOptions(int argc, const char *const *argv,
                       const std::vector<std::string> &known_flags)
{
    bool optionsDone = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (optionsDone || arg.rfind("--", 0) != 0) {
            positionals.push_back(arg);
            continue;
        }
        if (arg == "--") {
            optionsDone = true;
            continue;
        }
        const std::string name = arg.substr(2);
        if (name.empty())
            fatal("empty option name '--'");
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            options[name.substr(0, eq)] = name.substr(eq + 1);
            continue;
        }
        if (std::find(known_flags.begin(), known_flags.end(), name) !=
            known_flags.end()) {
            flags.push_back(name);
            continue;
        }
        if (i + 1 >= argc)
            fatal("option --", name, " needs a value");
        options[name] = argv[++i];
    }
}

bool
CliOptions::hasFlag(const std::string &name) const
{
    return std::find(flags.begin(), flags.end(), name) != flags.end();
}

bool
CliOptions::hasOption(const std::string &name) const
{
    return options.count(name) > 0;
}

std::string
CliOptions::getString(const std::string &name,
                      const std::string &def) const
{
    auto it = options.find(name);
    return it == options.end() ? def : it->second;
}

std::uint64_t
CliOptions::getUint(const std::string &name, std::uint64_t def) const
{
    auto it = options.find(name);
    if (it == options.end())
        return def;
    // strtoull would negate "-1" into 2^64 - 1 and clamp overflow to
    // the same value; both are errors, never a huge run length.
    const std::string &s = it->second;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' ||
        s.find('-') != std::string::npos || errno == ERANGE)
        fatal("option --", name, " expects a non-negative integer "
              "below 2^64, got '", s, "'");
    return std::uint64_t(v);
}

double
CliOptions::getDouble(const std::string &name, double def) const
{
    auto it = options.find(name);
    if (it == options.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v))
        fatal("option --", name, " expects a finite number, got '",
              it->second, "'");
    return v;
}

std::vector<std::string>
CliOptions::unknownOptions(const std::vector<std::string> &known) const
{
    std::vector<std::string> unknown;
    for (const auto &kv : options) {
        if (std::find(known.begin(), known.end(), kv.first) ==
            known.end()) {
            unknown.push_back(kv.first);
        }
    }
    for (const auto &f : flags) {
        if (std::find(known.begin(), known.end(), f) == known.end())
            unknown.push_back(f);
    }
    return unknown;
}

} // namespace harness
} // namespace soefair
