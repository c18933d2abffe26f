/**
 * @file
 * Register rename table (RAT).
 *
 * Maps each architectural register to the youngest in-flight
 * producer (a ROB entry), or to nullptr when the architectural value
 * is ready. Renaming is tag-by-ROB-entry: there is no physical
 * register file to size because a trace-driven timing model only
 * needs the dependence edges.
 */

#ifndef SOEFAIR_CPU_RENAME_HH
#define SOEFAIR_CPU_RENAME_HH

#include <array>

#include "cpu/dyn_inst.hh"
#include "isa/micro_op.hh"

namespace soefair
{
namespace cpu
{

class RenameTable
{
  public:
    RenameTable() { clear(); }

    /** In-flight producer of reg, or nullptr if ready. */
    DynInst *
    producer(isa::RegId reg) const
    {
        if (reg == isa::invalidReg)
            return nullptr;
        return table[std::size_t(reg)];
    }

    /** Record inst as the youngest producer of its dest. */
    void
    setProducer(DynInst *inst)
    {
        if (inst->op.dest != isa::invalidReg)
            table[std::size_t(inst->op.dest)] = inst;
    }

    /**
     * Retire-time cleanup: if inst is still the architectural
     * mapping for its dest, the value is now in the register file.
     */
    void
    retire(const DynInst *inst)
    {
        if (inst->op.dest != isa::invalidReg &&
            table[std::size_t(inst->op.dest)] == inst) {
            table[std::size_t(inst->op.dest)] = nullptr;
        }
    }

    /** Full-pipeline squash: every mapping becomes architectural. */
    void
    clear()
    {
        table.fill(nullptr);
    }

  private:
    std::array<DynInst *, isa::numArchRegs> table;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_RENAME_HH
