/**
 * @file
 * The symbol check's self-test input: one use of each ban the check
 * holds, compiled like the library and then checked as if it were a
 * harness object. tools/CMakeLists.txt expects the check to name
 * every one of them; nothing links this object.
 */

#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>

namespace soefair
{

struct Group
{
    int id;
};

double
symbolCheckBad(Group *group, const std::string &name)
{
    // DET-003: an unordered and a pointer-keyed container, both
    // filled and iterated (an unused one emits no symbol).
    std::unordered_map<std::string, double> byName;
    byName[name] = 1.0;
    std::map<Group *, double> byGroup;
    byGroup[group] = 2.0;
    double sum = 0.0;
    for (const auto &kv : byName)
        sum += kv.second;
    for (const auto &kv : byGroup)
        sum += kv.second;
    // DET-002: the environment outside harness/env.cc.
    if (const char *v = std::getenv("SOEFAIR_BAD"))
        sum += double(v[0]);
    // DET-001: libc's PRNG and a clock.
    sum += double(std::rand());
    sum += double(
        std::chrono::steady_clock::now().time_since_epoch().count());
    // ERR-001: a process exit outside the exit-code taxonomy.
    if (sum < 0.0)
        std::exit(1);
    return sum;
}

} // namespace soefair
