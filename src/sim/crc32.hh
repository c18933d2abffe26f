/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) used to
 * guard the sweep journal's lines against silent corruption. A
 * checksum mismatch is a *defined* failure (CheckpointError), never
 * silently-parsed garbage.
 */

#ifndef SOEFAIR_SIM_CRC32_HH
#define SOEFAIR_SIM_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace soefair
{
namespace sim
{

/** CRC-32 of `len` bytes at `data` (initial value 0). */
std::uint32_t crc32(const void *data, std::size_t len);

inline std::uint32_t
crc32(const std::string &s)
{
    return crc32(s.data(), s.size());
}

} // namespace sim
} // namespace soefair

#endif // SOEFAIR_SIM_CRC32_HH
