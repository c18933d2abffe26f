#include "sim/logging.hh"

#include <iostream>
#include <mutex>
#include <ostream>

#include "sim/annotations.hh"

namespace soefair
{
namespace logging
{

bool verbose = false;

namespace
{

/**
 * The single process-wide output sink. Every stderr message
 * (printMessage) and every harness progress line (printLine) is
 * emitted as one complete line under this lock, so concurrent
 * threads cannot interleave output mid-line. Callers format the full string
 * first; the critical section is only the write itself.
 */
struct SOE_THREAD_OWNED(shared) OutputSink
{
    std::mutex m;
};

OutputSink &
sink()
{
    static OutputSink s;
    return s;
}

} // namespace

void
printMessage(const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sink().m);
    std::cerr << prefix << msg << std::endl;
}

void
printLine(std::ostream &os, const std::string &line)
{
    std::lock_guard<std::mutex> lock(sink().m);
    os << line << std::endl;
}

} // namespace logging
} // namespace soefair
