/**
 * @file
 * The four machine points the configuration tests sweep: two
 * smaller than Table 3, Table 3 itself and one wider. Shared by
 * test_config_sweep.cc (the machine stays sound at each point) and
 * test_fastforward.cc (fast-forward changes no byte at each point).
 */

#ifndef SOEFAIR_TESTS_CONFIG_POINTS_HH
#define SOEFAIR_TESTS_CONFIG_POINTS_HH

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "harness/machine_config.hh"

namespace soefair
{
namespace config_points
{

struct ConfigPoint
{
    std::string name;
    unsigned rob, iq, lq, sq;
    unsigned l1dKiB, l2KiB;
    unsigned dispatchWidth;
};

// Name the point when gtest prints the parameter; its default byte
// dump includes the string's heap pointer and so differs per run.
inline void
PrintTo(const ConfigPoint &p, std::ostream *os)
{
    *os << p.name;
}

inline std::vector<ConfigPoint>
points()
{
    return {
        {"tiny", 16, 8, 4, 4, 8, 256, 1},
        {"narrow", 32, 16, 8, 8, 16, 512, 2},
        {"table3", 96, 48, 32, 24, 32, 2048, 4},
        {"wide", 192, 96, 48, 48, 64, 4096, 8},
    };
}

inline harness::MachineConfig
machineFor(const ConfigPoint &p)
{
    harness::MachineConfig mc = harness::MachineConfig::benchDefault();
    mc.core.robEntries = p.rob;
    mc.core.iqEntries = p.iq;
    mc.core.lqEntries = p.lq;
    mc.core.sqEntries = p.sq;
    mc.core.dispatchWidth = p.dispatchWidth;
    mc.core.retireWidth = p.dispatchWidth;
    mc.core.issueWidth = p.dispatchWidth + 2;
    mc.core.fetch.width = p.dispatchWidth;
    mc.mem.l1d.sizeBytes = p.l1dKiB * 1024;
    mc.mem.l2.sizeBytes = p.l2KiB * 1024;
    return mc;
}

/** gtest's name for a point's instantiation. */
inline std::string
pointName(const ::testing::TestParamInfo<ConfigPoint> &info)
{
    return info.param.name;
}

} // namespace config_points
} // namespace soefair

#endif // SOEFAIR_TESTS_CONFIG_POINTS_HH
