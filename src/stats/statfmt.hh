/**
 * @file
 * The precision codec: every floating-point value that feeds a
 * deterministic artifact (journal payloads, CSV cells, job labels,
 * the stats dump, progress lines that tests grep) is formatted here,
 * and only here.
 *
 * Why a codec instead of `os << value`: stream-state precision is
 * set far from where values are printed, so one added `setprecision`
 * upstream silently changes journal fingerprints and golden CSV
 * bytes. These helpers are locale-free (the simulator never calls
 * setlocale; the symbol check in tools/symbol_check.sh enforces
 * that) and independent of any stream state, so the byte format of
 * emitted floats is pinned at the call site. The artifact writers
 * build their text in a Writer, which does not compile with a raw
 * double or float.
 *
 * Tiers:
 *  - full(): 17 significant digits ("%.17g") — round-trips every
 *    double exactly. Journal payloads, sweep caches, campaign keys:
 *    anything that is parsed back or fingerprinted.
 *  - csv():  6 significant digits ("%.6g", the historical ostream
 *    default) — CSV cells, job labels, progress lines. Matches what
 *    a default-constructed ostream printed before the codec existed,
 *    so golden outputs are byte-identical.
 *  - stat(): the stats-dump column format (same "%.6g" digits; a
 *    separate entry point so dump format can evolve independently).
 */

#ifndef SOEFAIR_STATS_STATFMT_HH
#define SOEFAIR_STATS_STATFMT_HH

#include <iomanip>
#include <sstream>
#include <string>
#include <type_traits>

namespace soefair
{
namespace statistics
{
namespace statfmt
{

/** "%.17g": exact round-trip encoding for payloads/fingerprints. */
std::string full(double v);

/** "%.6g": CSV cells, labels and progress lines (the historical
 *  default-precision ostream format, byte-for-byte). */
std::string csv(double v);

/** Stats-dump value column (currently the csv() format). */
std::string stat(double v);

/**
 * Text builder for the deterministic artifacts: journal payloads,
 * campaign CSV, journal keys, the machine description and the stats
 * dump. It streams what an ostringstream streams, except that a
 * double, float or long double does not compile (pass full(), csv()
 * or stat() text instead) and neither does std::setprecision, so no
 * stream state can move a byte of an emitted number.
 */
class Writer
{
  public:
    template <typename T>
        requires(!std::is_floating_point_v<T> &&
                 !std::is_same_v<T, decltype(std::setprecision(0))>)
    Writer &
    operator<<(const T &v)
    {
        os << v;
        return *this;
    }

    Writer &operator<<(double) = delete;
    Writer &operator<<(float) = delete;

    std::string str() const { return os.str(); }

  private:
    std::ostringstream os;
};

} // namespace statfmt
} // namespace statistics
} // namespace soefair

#endif // SOEFAIR_STATS_STATFMT_HH
