/**
 * @file
 * Runtime invariant auditing.
 *
 * Two complementary pieces:
 *
 *  - SOE_AUDIT(cond, msg...): an inline invariant check that is
 *    active in Debug and sanitized builds (SOEFAIR_AUDIT_ENABLED)
 *    and compiles to nothing in optimized builds. Unlike
 *    soefair_assert (which guards conditions cheap enough to keep in
 *    every build), SOE_AUDIT is for paper-level structural
 *    invariants that may sit on hot paths: fairness in [0, 1],
 *    deficit credit bounded by quota + burst, occupancy never above
 *    capacity, monotonic cycle counters.
 *
 *  - InvariantAuditor: a registry of whole-structure audit sweeps
 *    (e.g. Cache tag-array consistency). Modules register a callback
 *    with the global auditor at construction (via the RAII
 *    AuditRegistration handle) and the harness runs every registered
 *    sweep at natural synchronization points (delta-window samples,
 *    end of run). Registration is active in all builds; runAll() is
 *    a no-op unless audits are compiled in, so Release pays nothing
 *    beyond an empty function call per window.
 *
 * A failed audit throws AuditError so tests can assert on seeded
 * violations without killing the process (same convention as
 * fatal()/panic() in sim/logging.hh).
 */

#ifndef SOEFAIR_SIM_INVARIANT_HH
#define SOEFAIR_SIM_INVARIANT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

#ifndef SOEFAIR_AUDIT_ENABLED
#define SOEFAIR_AUDIT_ENABLED 0
#endif

namespace soefair
{

/** Thrown by a failed SOE_AUDIT: a structural invariant is broken. */
class AuditError : public std::logic_error
{
  public:
    explicit AuditError(const std::string &msg)
        : std::logic_error(msg) {}
};

namespace sim
{

/**
 * Record the violation and throw AuditError. Out of line so the
 * failure path costs nothing in the callers' instruction streams.
 */
[[noreturn]] void auditFail(const char *cond, const char *file,
                            int line, const std::string &msg);

/** True when SOE_AUDIT checks are compiled into this build. */
constexpr bool
auditsEnabled()
{
    return SOEFAIR_AUDIT_ENABLED != 0;
}

/** Per-thread count of audit failures (survives caught throws).
 *  Thread-local so Systems on different threads never race on it;
 *  each thread sees the same view a forked job child has. */
std::uint64_t auditViolations();

/**
 * Registry of module-level audit sweeps. One instance per thread
 * (global() is thread-local): a System built on a worker thread
 * registers and runs its sweeps entirely on that thread, which is
 * what keeps the audit path free of mutable shared state. See the
 * file comment for the registration/run protocol.
 */
class InvariantAuditor
{
  public:
    using Check = std::function<void()>;

    static InvariantAuditor &global();

    /** Register a named sweep; @return a handle for unregister(). */
    std::uint64_t registerCheck(std::string name, Check fn);

    /** Remove a sweep; unknown ids are ignored (idempotent). */
    void unregisterCheck(std::uint64_t id);

    /**
     * Run every registered sweep. AuditErrors propagate to the
     * caller. Compiled-out builds return immediately.
     */
    void runAll();

    std::size_t numChecks() const { return checks.size(); }
    std::uint64_t sweepsRun() const { return sweeps; }

  private:
    struct Entry
    {
        std::uint64_t id = 0;
        std::string name;
        Check fn;
    };

    std::vector<Entry> checks;
    std::uint64_t nextId = 1;
    std::uint64_t sweeps = 0;
};

/**
 * RAII registration with the global auditor: construct with the
 * sweep to run, destruction unregisters. Movable so owning modules
 * stay movable.
 */
class AuditRegistration
{
  public:
    AuditRegistration() = default;
    AuditRegistration(std::string name, InvariantAuditor::Check fn)
        : id(InvariantAuditor::global().registerCheck(
              std::move(name), std::move(fn)))
    {}

    ~AuditRegistration() { release(); }

    AuditRegistration(const AuditRegistration &) = delete;
    AuditRegistration &operator=(const AuditRegistration &) = delete;

    AuditRegistration(AuditRegistration &&other) noexcept
        : id(other.id)
    {
        other.id = 0;
    }

    AuditRegistration &
    operator=(AuditRegistration &&other) noexcept
    {
        if (this != &other) {
            release();
            id = other.id;
            other.id = 0;
        }
        return *this;
    }

    bool active() const { return id != 0; }

  private:
    void
    release()
    {
        if (id != 0) {
            InvariantAuditor::global().unregisterCheck(id);
            id = 0;
        }
    }

    std::uint64_t id = 0;
};

} // namespace sim
} // namespace soefair

/**
 * Audit a paper-level invariant. Active in Debug/sanitized builds;
 * in optimized builds neither the condition nor the message
 * arguments are evaluated (they are still parsed, so audits cannot
 * rot silently).
 */
#if SOEFAIR_AUDIT_ENABLED
#define SOE_AUDIT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::soefair::sim::auditFail(                                  \
                #cond, __FILE__, __LINE__,                              \
                ::soefair::logging::formatMessage(__VA_ARGS__));        \
        }                                                               \
    } while (0)
#else
#define SOE_AUDIT(cond, ...)                                            \
    do {                                                                \
        if (false) {                                                    \
            (void)(cond);                                               \
            (void)::soefair::logging::formatMessage(__VA_ARGS__);       \
        }                                                               \
    } while (0)
#endif

#endif // SOEFAIR_SIM_INVARIANT_HH
