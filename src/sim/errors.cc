#include "sim/errors.hh"

#include <array>
#include <cstddef>

namespace soefair
{

namespace
{

struct KindRow
{
    SimError::Kind kind;
    int code;
    const char *name;
};

/**
 * The exit code and name of every SimError kind, indexed by the
 * kind: the one mapping exitCode(), kindName() and
 * simErrorKindNameForExit() all read.
 */
constexpr std::array<KindRow, std::size_t(SimError::Kind::NumKinds)>
    kindTable = {{
        {SimError::Kind::Input, InputError::code, "input"},
        {SimError::Kind::Estimator, EstimatorError::code, "estimator"},
        {SimError::Kind::Watchdog, WatchdogTimeout::code, "watchdog"},
        {SimError::Kind::Checkpoint, CheckpointError::code, "checkpoint"},
    }};

constexpr bool
everyKindHasItsOwnRow()
{
    for (std::size_t i = 0; i < kindTable.size(); ++i) {
        if (kindTable[i].kind != SimError::Kind(i))
            return false;
    }
    return true;
}

static_assert(everyKindHasItsOwnRow(),
              "kindTable needs one row per SimError::Kind, in order");

const KindRow &
rowOf(SimError::Kind kind)
{
    return kindTable.at(std::size_t(kind));
}

} // namespace

int
SimError::exitCode() const
{
    return rowOf(errKind).code;
}

const char *
SimError::kindName() const
{
    return rowOf(errKind).name;
}

const char *
simErrorKindNameForExit(int exit_code)
{
    for (const KindRow &row : kindTable) {
        if (row.code == exit_code)
            return row.name;
    }
    return nullptr;
}

} // namespace soefair
