/**
 * @file
 * Structured error taxonomy for the hardened runtime.
 *
 * Every defined failure of a run maps to one typed SimError subclass
 * so that callers (the CLI, the sweep supervisor, tests) can tell
 * *why* a run died without parsing messages:
 *
 *  - InputError:      malformed external input — machine
 *                     configuration, workload parameters, run
 *                     lengths. The run never started.
 *  - EstimatorError:  the fairness enforcer received a counter
 *                     vector of the wrong size or a non-finite
 *                     measured miss latency.
 *  - WatchdogTimeout: the no-progress watchdog detected a livelock
 *                     or whole-machine starvation (zero retirement
 *                     across K consecutive delta windows).
 *  - CheckpointError: a sweep journal cannot be read, locked or
 *                     written, is corrupt, or belongs to another
 *                     campaign.
 *
 * All SimErrors derive from FatalError, so existing handlers (and
 * tests) that treat bad input as fatal keep working; the CLI maps
 * each class to a distinct exit code (SimError::exitCode()) so
 * scripted callers get the taxonomy too. Internal simulator bugs
 * stay PanicError/AuditError — they are not part of this hierarchy
 * by design: a SimError is a *defined* failure, a panic is not.
 */

#ifndef SOEFAIR_SIM_ERRORS_HH
#define SOEFAIR_SIM_ERRORS_HH

#include <concepts>
#include <string>

#include "sim/logging.hh"

namespace soefair
{

/** Base of the typed, defined-failure hierarchy. */
class SimError : public FatalError
{
  public:
    enum class Kind
    {
        Input,
        Estimator,
        Watchdog,
        Checkpoint,
        NumKinds, ///< count of the kinds above; not a kind itself
    };

    SimError(Kind kind, const std::string &msg)
        : FatalError(msg), errKind(kind)
    {}

    Kind kind() const { return errKind; }

    /** Distinct process exit code for this class (10..13). */
    int exitCode() const;

    /** Short lowercase class name ("input", "watchdog", ...). */
    const char *kindName() const;

  private:
    Kind errKind;
};

/** Malformed external input (trace, config, workload parameters). */
class InputError : public SimError
{
  public:
    static constexpr int code = 10;
    explicit InputError(const std::string &msg)
        : SimError(Kind::Input, msg)
    {}
};

/** The fairness enforcer got malformed counters or a bad latency. */
class EstimatorError : public SimError
{
  public:
    static constexpr int code = 11;
    explicit EstimatorError(const std::string &msg)
        : SimError(Kind::Estimator, msg)
    {}
};

/** The no-progress watchdog fired (livelock / total starvation). */
class WatchdogTimeout : public SimError
{
  public:
    static constexpr int code = 12;
    explicit WatchdogTimeout(const std::string &msg)
        : SimError(Kind::Watchdog, msg)
    {}
};

/** A sweep journal is unusable (see the taxonomy above). */
class CheckpointError : public SimError
{
  public:
    static constexpr int code = 13;
    explicit CheckpointError(const std::string &msg)
        : SimError(Kind::Checkpoint, msg)
    {}
};

/**
 * Map a process exit code back to the SimError class name that
 * produces it ("input", "estimator", "watchdog", "checkpoint"),
 * or nullptr when the code
 * belongs to no SimError class. The sweep supervisor uses this to
 * classify dead child processes without parsing their output.
 */
const char *simErrorKindNameForExit(int exit_code);

/** A SimError subclass that declares its exit code. */
template <typename E>
concept TypedSimError = std::derived_from<E, SimError> && requires {
    { E::code } -> std::convertible_to<int>;
};

/**
 * Format a message, print it (same convention as fatal()) and throw
 * the requested SimError subclass:
 *
 *   raiseError<InputError>("trace '", path, "' truncated");
 */
template <TypedSimError E, typename... Args>
[[noreturn]] void
raiseError(Args &&...args)
{
    auto msg = logging::formatMessage(std::forward<Args>(args)...);
    E err(msg);
    logging::printMessage("error: ",
                          std::string(err.kindName()) + ": " + msg);
    throw err;
}

} // namespace soefair

#endif // SOEFAIR_SIM_ERRORS_HH
