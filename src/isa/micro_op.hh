/**
 * @file
 * The synthetic micro-op ISA executed by the out-of-order core.
 *
 * The core is trace/generator driven: a workload generator produces
 * the correct dynamic stream of MicroOps and the core models the
 * *timing* of that stream (dependencies, structural hazards, cache
 * behaviour, branch mispredict penalties, thread-switch drains).
 * Micro-op semantics are therefore reduced to what timing needs:
 * an op class, source/destination registers, a memory address for
 * loads/stores and an actual branch outcome for branches.
 */

#ifndef SOEFAIR_ISA_MICRO_OP_HH
#define SOEFAIR_ISA_MICRO_OP_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace soefair
{
namespace isa
{

/** Functional classes of micro-ops. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< add/sub/logic/compare/shift, 1-cycle
    IntMul,     ///< integer multiply, pipelined
    IntDiv,     ///< integer divide, unpipelined
    FpAdd,      ///< FP add/sub/convert, pipelined
    FpMul,      ///< FP multiply, pipelined
    FpDiv,      ///< FP divide/sqrt, unpipelined
    Load,       ///< memory read through the data cache
    Store,      ///< memory write, retires into the store buffer
    BranchCond, ///< conditional direct branch
    BranchUncond, ///< unconditional direct branch/call/return
    Nop,        ///< no-op (consumes a slot only)
    Pause,      ///< busy-wait hint: an explicit switch trigger
                ///< (paper Section 6, footnote 7: x86 `pause`)
    NumOpClasses
};

constexpr unsigned numOpClasses =
    static_cast<unsigned>(OpClass::NumOpClasses);

/** Human-readable class name (for stats and traces). */
const char *opClassName(OpClass c);

/** Panics on an out-of-range op class; never returns. */
[[noreturn]] void badOpClass(const char *who);

/** Execution latency per class, in OpClass order. */
inline constexpr std::uint8_t opLatencies[numOpClasses] = {
    1,  // IntAlu
    3,  // IntMul
    20, // IntDiv
    3,  // FpAdd
    5,  // FpMul
    20, // FpDiv
    // Loads/stores compute their address in 1 cycle; cache time is
    // added by the LSQ from the memory hierarchy.
    1,  // Load
    1,  // Store
    1,  // BranchCond
    1,  // BranchUncond
    1,  // Nop
    1,  // Pause
};

/** Execution latency of the class in cycles (cache ops excluded). */
inline unsigned
opLatency(OpClass c)
{
    if (static_cast<unsigned>(c) >= numOpClasses)
        badOpClass("opLatency");
    return opLatencies[static_cast<unsigned>(c)];
}

/** True if a unit of this class accepts a new op every cycle. */
constexpr bool
opPipelined(OpClass c)
{
    return c != OpClass::IntDiv && c != OpClass::FpDiv;
}

/** True for Load/Store. */
inline bool
isMemOp(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for either branch class. */
inline bool
isBranch(OpClass c)
{
    return c == OpClass::BranchCond || c == OpClass::BranchUncond;
}

/** Number of architectural registers (shared int/fp namespace). */
constexpr int numArchRegs = 64;

/** Register id; negative means "no register". */
using RegId = std::int16_t;
constexpr RegId invalidReg = -1;

/**
 * One dynamic micro-op as produced by a workload generator.
 *
 * seqNum is assigned by the generator and is strictly increasing in
 * program order within a thread; the core uses it as its renaming
 * and squash tag.
 */
struct MicroOp
{
    InstSeqNum seqNum = invalidSeqNum;
    Addr pc = 0;
    OpClass op = OpClass::Nop;

    RegId src0 = invalidReg;
    RegId src1 = invalidReg;
    RegId dest = invalidReg;

    /** Effective byte address for loads and stores. */
    Addr memAddr = 0;
    /** Access size in bytes for loads and stores. */
    std::uint8_t memSize = 0;

    /** Actual outcome for branches (always true for unconditional). */
    bool taken = false;
    /** Actual target for taken branches; fall-through otherwise. */
    Addr target = 0;

    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isBranch() const { return isa::isBranch(op); }
    bool isMem() const { return isMemOp(op); }

    /** Fall-through PC (fixed 4-byte encoding). */
    Addr nextPc() const { return pc + 4; }

    /** PC actually executed after this op. */
    Addr
    actualNextPc() const
    {
        return (isBranch() && taken) ? target : nextPc();
    }

    std::string toString() const;
};

} // namespace isa
} // namespace soefair

#endif // SOEFAIR_ISA_MICRO_OP_HH
