/**
 * @file
 * Text retirement tracer.
 *
 * Attaches to Core's retire hook and writes one line per retired
 * micro-op: `tick tid seqNum pc opClass [flags]`. Useful for
 * debugging workload behaviour and for diffing runs (the retired
 * stream of a thread must be identical across SOE configurations).
 */

#ifndef SOEFAIR_HARNESS_RETIRE_TRACE_HH
#define SOEFAIR_HARNESS_RETIRE_TRACE_HH

#include <fstream>
#include <iomanip>
#include <string>

#include "cpu/core.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace harness
{

class RetireTracer
{
  public:
    /** Open the trace file; fatal() on failure. */
    explicit RetireTracer(const std::string &path)
        : os(path)
    {
        if (!os)
            fatal("cannot open retire trace '", path, "'");
        os << "# tick tid seq pc op flags\n";
    }

    /** Install on a core (safe to outlive the returned hook). */
    void
    attach(cpu::Core &core)
    {
        core.setRetireHook(
            [this](const cpu::DynInst &inst, Tick now) {
                write(inst, now);
            });
    }

    void
    write(const cpu::DynInst &inst, Tick now)
    {
        os << now << ' ' << inst.tid << ' ' << inst.op.seqNum
           << " 0x" << std::hex << inst.op.pc << std::dec << ' '
           << isa::opClassName(inst.op.op);
        if (inst.op.isMem())
            os << " addr=0x" << std::hex << inst.op.memAddr
               << std::dec;
        if (inst.op.isBranch())
            os << (inst.op.taken ? " T" : " NT");
        if (inst.l2Miss)
            os << " L2MISS";
        if (inst.mispredicted)
            os << " MISP";
        os << '\n';
    }

  private:
    std::ofstream os;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_RETIRE_TRACE_HH
