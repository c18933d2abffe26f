// ERR-003 tree fixture (clean): the CLI entry point whose verb
// implementations the rule statically walks — literals, ternaries,
// named exit constants, one-level helper expansion and raiseError
// all resolve; everything dispatched is registered.
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

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argv[1] ? argv[1] : "";
    Options opts;
    if (cmd == "run") return cmdRun(opts);
    if (cmd == "probe") return cmdProbe(opts);
    if (cmd == "drain") return cmdDrain(opts);
    return usage();
}

} // namespace soefair
