#include "sim/invariant.hh"

#include <algorithm>

namespace soefair
{
namespace sim
{

namespace
{

// Per-thread, not process-global: Systems on different threads
// would otherwise race on a shared counter. Each thread observes
// only its own violations — the same view a forked job child has.
thread_local std::uint64_t violationCount = 0;

} // namespace

std::uint64_t
auditViolations()
{
    return violationCount;
}

void
auditFail(const char *cond, const char *file, int line,
          const std::string &msg)
{
    ++violationCount;
    const std::string full = logging::formatMessage(
        "audit '", cond, "' failed at ", file, ":", line,
        msg.empty() ? "" : ": ", msg);
    logging::printMessage("audit: ", full);
    throw AuditError(full);
}

InvariantAuditor &
InvariantAuditor::global()
{
    // One registry per thread: a System constructed on a worker
    // thread registers its sweeps here and runs them here, so
    // concurrent jobs never share (or race on) the check vector.
    thread_local InvariantAuditor instance;
    return instance;
}

std::uint64_t
InvariantAuditor::registerCheck(std::string name, Check fn)
{
    soefair_assert(fn, "audit check must be callable: ", name);
    const std::uint64_t id = nextId++;
    checks.push_back(Entry{id, std::move(name), std::move(fn)});
    return id;
}

void
InvariantAuditor::unregisterCheck(std::uint64_t id)
{
    checks.erase(std::remove_if(checks.begin(), checks.end(),
                                [id](const Entry &e) {
                                    return e.id == id;
                                }),
                 checks.end());
}

void
InvariantAuditor::runAll()
{
    if (!auditsEnabled())
        return;
    ++sweeps;
    // Index loop: a sweep must not mutate the registry, but a copy
    // per call would put an allocation on the delta-window path.
    for (std::size_t i = 0; i < checks.size(); ++i)
        checks[i].fn();
}

} // namespace sim
} // namespace soefair
