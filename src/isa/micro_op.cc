#include "isa/micro_op.hh"

#include <sstream>

#include "sim/logging.hh"

namespace soefair
{
namespace isa
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::FpAdd: return "FpAdd";
      case OpClass::FpMul: return "FpMul";
      case OpClass::FpDiv: return "FpDiv";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::BranchCond: return "BranchCond";
      case OpClass::BranchUncond: return "BranchUncond";
      case OpClass::Nop: return "Nop";
      case OpClass::Pause: return "Pause";
      default: panic("opClassName: bad op class");
    }
}

void
badOpClass(const char *who)
{
    panic(who, ": bad op class");
}

std::string
MicroOp::toString() const
{
    std::ostringstream os;
    os << "[" << seqNum << " pc=0x" << std::hex << pc << std::dec
       << " " << opClassName(op);
    if (isMem())
        os << " addr=0x" << std::hex << memAddr << std::dec
           << " size=" << unsigned(memSize);
    if (isBranch())
        os << (taken ? " T->0x" : " NT 0x") << std::hex
           << (taken ? target : nextPc()) << std::dec;
    os << "]";
    return os.str();
}

} // namespace isa
} // namespace soefair
