/** @file Unit tests for the data-address stream model. */

#include <gtest/gtest.h>

#include <map>

#include "workload/address_stream.hh"

using namespace soefair;
using namespace soefair::workload;

namespace
{

Phase
phaseWith(double hot, double stream, double strided, double chase)
{
    Phase p;
    p.wRegion[unsigned(RegionKind::Hot)] = hot;
    p.wRegion[unsigned(RegionKind::Stream)] = stream;
    p.wRegion[unsigned(RegionKind::Strided)] = strided;
    p.wRegion[unsigned(RegionKind::Chase)] = chase;
    return p;
}

} // namespace

TEST(AddressStream, ThreadSlicesAreDisjoint)
{
    AddressStream a(0, 1), b(1, 1);
    EXPECT_NE(a.dataBase(), b.dataBase());
    // 1 TiB apart.
    EXPECT_EQ(b.dataBase() - a.dataBase(), Addr(1) << 40);
}

TEST(AddressStream, HotAddressesStayInWorkingSet)
{
    AddressStream s(0, 2);
    Phase p = phaseWith(1, 0, 0, 0);
    p.hotBytes = 4096;
    s.setPhase(p);
    for (int i = 0; i < 10000; ++i) {
        auto a = s.nextLoad();
        EXPECT_EQ(a.kind, RegionKind::Hot);
        EXPECT_GE(a.addr, s.dataBase());
        EXPECT_LT(a.addr, s.dataBase() + 4096);
        EXPECT_EQ(a.addr % 8, 0u);
    }
}

TEST(AddressStream, StreamIsSequentialAndWraps)
{
    AddressStream s(0, 3);
    Phase p = phaseWith(0, 1, 0, 0);
    p.streamBytes = 256;
    p.streamElemBytes = 8;
    s.setPhase(p);
    Addr first = s.nextLoad().addr;
    for (int i = 1; i < 32; ++i)
        EXPECT_EQ(s.nextLoad().addr, first + Addr(8 * i));
    // Wrap after streamBytes.
    EXPECT_EQ(s.nextLoad().addr, first);
}

TEST(AddressStream, StridedWalksByStride)
{
    AddressStream s(0, 4);
    Phase p = phaseWith(0, 0, 1, 0);
    p.stridedBytes = 1024;
    p.strideBytes = 256;
    s.setPhase(p);
    Addr first = s.nextLoad().addr;
    EXPECT_EQ(s.nextLoad().addr, first + 256);
    EXPECT_EQ(s.nextLoad().addr, first + 512);
    EXPECT_EQ(s.nextLoad().addr, first + 768);
    EXPECT_EQ(s.nextLoad().addr, first); // wrap
}

TEST(AddressStream, ChaseVisitsManyLines)
{
    AddressStream s(0, 5);
    Phase p = phaseWith(0, 0, 0, 1);
    p.chaseBytes = 1024 * 1024;
    s.setPhase(p);
    std::map<Addr, int> lines;
    for (int i = 0; i < 1000; ++i) {
        auto a = s.nextLoad();
        EXPECT_EQ(a.kind, RegionKind::Chase);
        ++lines[a.addr & ~Addr(63)];
    }
    // Random chase should spread across many distinct lines.
    EXPECT_GT(lines.size(), 500u);
}

TEST(AddressStream, StoresNeverChase)
{
    AddressStream s(0, 6);
    s.setPhase(phaseWith(0, 0, 0, 1));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(s.nextStore().kind, RegionKind::Hot);
}

TEST(AddressStream, MixedWeightsRoughlyRespected)
{
    AddressStream s(0, 7);
    s.setPhase(phaseWith(0.8, 0.2, 0, 0));
    int streamCount = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        streamCount += s.nextLoad().kind == RegionKind::Stream;
    EXPECT_NEAR(streamCount / double(n), 0.2, 0.02);
}

TEST(AddressStream, RejectsDegenerateRegions)
{
    AddressStream s(0, 9);
    Phase p;
    p.hotBytes = 16; // under one line
    EXPECT_THROW(s.setPhase(p), soefair::PanicError);
}
