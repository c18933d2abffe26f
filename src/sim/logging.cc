#include "sim/logging.hh"

#include <iostream>
#include <ostream>

namespace soefair
{
namespace logging
{

bool verbose = false;

void
printMessage(const char *prefix, const std::string &msg)
{
    std::cerr << prefix << msg << std::endl;
}

void
printLine(std::ostream &os, const std::string &line)
{
    os << line << std::endl;
}

} // namespace logging
} // namespace soefair
