// ERR-003 tree fixture (bad): cli_main_clean.cc plus a verb that is
// dispatched but never registered in the verb registry — its exit
// codes are invisible to `soefair help`.
#include "harness/cli_verbs.hh"
#include "sim/errors.hh"

namespace soefair
{

namespace
{

constexpr int exitQueueFull = 22;

struct Options
{
    bool bad = false;
    bool full = false;
};

int
usage()
{
    return 2;
}

int
cmdRun(const Options &opts)
{
    if (opts.bad)
        raiseError<InputError>("bad input");
    return 0;
}

int
cmdProbe(const Options &opts)
{
    return opts.bad ? usage() : 0;
}

int
cmdDrain(const Options &opts)
{
    if (opts.full)
        return exitQueueFull;
    return 0;
}

int
cmdOrphan(const Options &opts)
{
    return opts.full ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argv[1] ? argv[1] : "";
    Options opts;
    if (cmd == "run") return cmdRun(opts);
    if (cmd == "probe") return cmdProbe(opts);
    if (cmd == "drain") return cmdDrain(opts);
    if (cmd == "orphan") return cmdOrphan(opts); // BAD: unregistered
    return usage();
}

} // namespace soefair
