// FF-001 fixture: a ticking component without a wake horizon. The
// fast-forward engine asks every component when it next needs to
// run; a tick() without nextWakeTick() would be silently skipped
// over during quiescent-run jumps.
#ifndef DETLINT_FIXTURE_FF001_BAD_HH
#define DETLINT_FIXTURE_FF001_BAD_HH

#include "sim/types.hh"

namespace soefair
{

class DripCounter // BAD: no nextWakeTick()
{
  public:
    void tick(Tick now);

  private:
    Tick drips = 0;
};

struct DripSnapshot
{
    // No tick(): passive value type, FF-001 does not apply.
    Tick total = 0;
};

} // namespace soefair

#endif // DETLINT_FIXTURE_FF001_BAD_HH
