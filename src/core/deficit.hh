/**
 * @file
 * Per-thread deficit counter (Section 3.2).
 *
 * Maintaining an *average* of IPSw_j instructions between switches
 * cannot be done by a simple countdown, because last-level misses
 * also switch the thread out before the quota is used up. Following
 * Deficit Round Robin, the unused part of the quota is carried over:
 * the counter is incremented by the quota at every switch-in,
 * decremented per retired instruction, and the thread is forced out
 * when it reaches zero.
 */

#ifndef SOEFAIR_CORE_DEFICIT_HH
#define SOEFAIR_CORE_DEFICIT_HH

#include <cmath>
#include <limits>

#include "sim/invariant.hh"

namespace soefair
{
namespace core
{

class DeficitCounter
{
  public:
    /** Quota meaning "no forced switches" (miss-only mode). */
    static constexpr double unlimited =
        std::numeric_limits<double>::infinity();

    /**
     * Set the per-switch-in quota (recomputed every delta). A
     * tighter quota re-bounds any banked credit, so the DRR bound
     * (credit <= IPSw + burst) holds across recalculation — quotas
     * can shrink sharply from one delta window to the next.
     */
    void
    setQuota(double ipsw)
    {
        SOE_AUDIT(ipsw > 0.0 && !std::isnan(ipsw),
                  "IPSw quota must be positive, got ", ipsw);
        quota = ipsw;
        if (limited() && credit != unlimited && credit > 2.0 * quota)
            credit = 2.0 * quota;
    }

    double quotaValue() const { return quota; }
    bool limited() const { return quota != unlimited; }

    /** Thread switched in: grant a fresh quota on top of leftovers. */
    void
    switchIn()
    {
        if (!limited()) {
            credit = unlimited;
            return;
        }
        if (credit == unlimited)
            credit = 0.0; // first finite quota after unlimited mode
        credit += quota;
        // A thread that banked a huge credit (e.g. it kept missing
        // early) should not monopolize later: cap at two quotas,
        // mirroring DRR's bounded deficit.
        if (credit > 2.0 * quota)
            credit = 2.0 * quota;
        auditBounds();
    }

    /**
     * An instruction retired. @return true if the quota is used up
     * and the thread must be switched out.
     */
    bool
    onRetire()
    {
        if (!limited())
            return false;
        auditBounds();
        credit -= 1.0;
        return credit <= 0.0;
    }

    double creditValue() const { return credit; }

    /**
     * Checkpoint/test hook: install a credit value directly,
     * bypassing the switch-in bounding. auditBounds() validates it.
     */
    void restoreCredit(double c) { credit = c; }

    /**
     * Eq. 9 quota discipline: the banked credit never exceeds one
     * fresh quota plus one quota of burst (the DRR bound), so no
     * residency can retire more than IPSw_j + burst instructions.
     * An unlimited credit is exempt: after a finite quota lands,
     * the running residency legitimately stays unlimited until the
     * next switch-in converts it.
     */
    void
    auditBounds() const
    {
        if (!limited() || credit == unlimited)
            return;
        SOE_AUDIT(credit <= 2.0 * quota && !std::isnan(credit),
                  "deficit credit ", credit,
                  " above IPSw + burst bound ", 2.0 * quota);
    }

    void
    reset()
    {
        credit = 0.0;
        quota = unlimited;
    }

  private:
    double quota = unlimited;
    double credit = 0.0;
};

} // namespace core
} // namespace soefair

#endif // SOEFAIR_CORE_DEFICIT_HH
