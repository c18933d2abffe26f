#include "workload/address_stream.hh"

#include <vector>

#include "sim/logging.hh"

namespace soefair
{
namespace workload
{

namespace
{

/** Region layout within a thread slice (fixed, generous gaps). */
constexpr Addr hotOffset = 0x0000'0000ull;
constexpr Addr streamOffset = 0x1'0000'0000ull;
constexpr Addr stridedOffset = 0x2'0000'0000ull;
constexpr Addr chaseOffset = 0x3'0000'0000ull;

} // namespace

AddressStream::AddressStream(ThreadID thread_id, std::uint64_t seed)
    : base(Addr(std::uint64_t(thread_id) + 1) << threadShift),
      rng(seed)
{
    setPhase(Phase{});
}

void
AddressStream::setPhase(const Phase &phase)
{
    active = phase;
    soefair_assert(active.hotBytes >= 64, "hot region under one line");
    soefair_assert(active.streamBytes >= 64, "stream region too small");
    soefair_assert(active.stridedBytes >= active.strideBytes,
                   "strided region smaller than its stride");
    soefair_assert(active.chaseBytes >= 64, "chase region too small");
    std::vector<double> w(active.wRegion,
                          active.wRegion + numRegionKinds);
    regionSampler = DiscreteSampler(w);
}

AddressStream::Access
AddressStream::nextLoad()
{
    return draw(true);
}

AddressStream::Access
AddressStream::nextStore()
{
    return draw(false);
}

AddressStream::Access
AddressStream::draw(bool isLoad)
{
    auto kind = static_cast<RegionKind>(regionSampler.sample(rng));
    if (!isLoad && kind == RegionKind::Chase)
        kind = RegionKind::Hot;

    Access a;
    a.kind = kind;
    switch (kind) {
      case RegionKind::Hot: a.addr = hotAddr(); break;
      case RegionKind::Stream: a.addr = streamAddr(); break;
      case RegionKind::Strided: a.addr = stridedAddr(); break;
      case RegionKind::Chase: a.addr = chaseAddr(); break;
      default: panic("bad region kind");
    }
    return a;
}

Addr
AddressStream::hotAddr()
{
    // 8-byte aligned uniform draw within the hot set.
    std::uint64_t slots = active.hotBytes / 8;
    return base + hotOffset + 8 * rng.below(slots);
}

Addr
AddressStream::streamAddr()
{
    Addr a = base + streamOffset + streamCursor;
    streamCursor += active.streamElemBytes;
    if (streamCursor >= active.streamBytes)
        streamCursor = 0;
    return a;
}

Addr
AddressStream::stridedAddr()
{
    Addr a = base + stridedOffset + stridedCursor;
    stridedCursor += active.strideBytes;
    if (stridedCursor >= active.stridedBytes)
        stridedCursor = 0;
    return a;
}

Addr
AddressStream::chaseAddr()
{
    // A pointer chase visits pseudo-random lines of a large region;
    // the *dependency* serialization is modelled by the generator
    // tying consecutive chase loads into a register chain.
    std::uint64_t lines = active.chaseBytes / 64;
    chaseCursor = rng.below(lines);
    return base + chaseOffset + 64 * chaseCursor;
}

} // namespace workload
} // namespace soefair
