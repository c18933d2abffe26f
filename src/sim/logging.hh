/**
 * @file
 * Status and error reporting in the gem5 style.
 *
 * fatal() is for user errors (bad configuration); it throws
 * FatalError so that tests can assert on misconfiguration without
 * killing the process. panic() is for internal simulator bugs; it
 * also throws (PanicError) for the same reason, after printing the
 * message. inform()/warn() print to stderr and never stop the run.
 */

#ifndef SOEFAIR_SIM_LOGGING_HH
#define SOEFAIR_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace soefair
{

/** Thrown by fatal(): the user asked for something unsupported. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Thrown by panic(): the simulator itself is broken. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

namespace logging
{

/** Global verbosity switch; examples/benches may silence inform(). */
extern bool verbose;

void printMessage(const char *prefix, const std::string &msg);

/**
 * Write one complete line to `os`, then flush. Harness progress lines
 * go through this so each one reaches the stream before the
 * supervisor forks its next job child.
 */
void printLine(std::ostream &os, const std::string &line);

template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace logging

/** Print an informational message (suppressed when not verbose). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logging::verbose) {
        logging::printMessage(
            "info: ", logging::formatMessage(std::forward<Args>(args)...));
    }
}

/** Print a warning; the run continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    logging::printMessage(
        "warn: ", logging::formatMessage(std::forward<Args>(args)...));
}

/** Report a user error and abort the run by throwing FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    auto msg = logging::formatMessage(std::forward<Args>(args)...);
    logging::printMessage("fatal: ", msg);
    throw FatalError(msg);
}

/** Report a simulator bug and abort the run by throwing PanicError. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    auto msg = logging::formatMessage(std::forward<Args>(args)...);
    logging::printMessage("panic: ", msg);
    throw PanicError(msg);
}

/** panic() unless the invariant holds. */
#define soefair_assert(cond, ...)                                       \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::soefair::panic("assertion '", #cond, "' failed at ",      \
                             __FILE__, ":", __LINE__, ": ",             \
                             ##__VA_ARGS__);                            \
        }                                                               \
    } while (0)

} // namespace soefair

#endif // SOEFAIR_SIM_LOGGING_HH
