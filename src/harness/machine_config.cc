#include "harness/machine_config.hh"

#include <cmath>

#include "sim/errors.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{

namespace
{

void
validateCache(const mem::CacheConfig &c)
{
    if (c.sizeBytes < 64 || c.assoc < 1) {
        raiseError<InputError>("cache '", c.name, "' impossible: ",
                               c.sizeBytes, " bytes, ", c.assoc,
                               "-way");
    }
    if (c.hitLatency < 1 || c.numMshrs < 1) {
        raiseError<InputError>("cache '", c.name,
                               "' needs hitLatency >= 1 and >= 1 "
                               "MSHR (got ", c.hitLatency, ", ",
                               c.numMshrs, ")");
    }
}

void
validateTlb(const mem::TlbConfig &t)
{
    if (t.entries < 1) {
        raiseError<InputError>("TLB '", t.name,
                               "' must have >= 1 entry");
    }
}

} // namespace

MachineConfig
MachineConfig::paperDefault()
{
    MachineConfig mc;
    // The struct defaults already encode Table 3; spelled out here
    // so the preset is explicit and robust to default drift.
    mc.core.robEntries = 96;
    mc.core.iqEntries = 48;
    mc.core.lqEntries = 32;
    mc.core.sqEntries = 24;
    mc.core.sbEntries = 12;
    mc.core.dispatchWidth = 4;
    mc.core.issueWidth = 6;
    mc.core.retireWidth = 4;
    mc.core.drainCycles = 6;
    mc.core.switchRestartDelay = 8;
    mc.core.fetch = {4, 16, 4, 2};
    mc.core.bpred = {16 * 1024, 12, 4096, 4};
    mc.core.fus = {3, 1, 1, 1, 1, 1, 2};

    mc.mem.l1i = {"l1i", 32 * 1024, 8, 3, 4};
    mc.mem.l1d = {"l1d", 32 * 1024, 8, 3, 8};
    mc.mem.l2 = {"l2", 2 * 1024 * 1024, 16, 12, 16};
    mc.mem.itlb = {"itlb", 64, 10};
    mc.mem.dtlb = {"dtlb", 64, 10};
    mc.mem.busOccupancy = 4;
    mc.mem.memLatency = 281; // L1(3)+L2(12)+bus(4)+281 ~= 300 total

    mc.soe.delta = 250 * 1000;
    mc.soe.maxCyclesQuota = 50 * 1000;
    mc.soe.missLatency = 300.0;
    return mc;
}

MachineConfig
MachineConfig::benchDefault()
{
    MachineConfig mc = paperDefault();
    mc.soe.delta = 100 * 1000;
    mc.soe.maxCyclesQuota = 25 * 1000;
    return mc;
}

void
MachineConfig::print(std::ostream &out) const
{
    statistics::statfmt::Writer os;
    os << "Simulated machine parameters (paper Table 3)\n"
       << "--------------------------------------------\n"
       << "Pipeline      : " << core.dispatchWidth << "-wide "
       << "fetch/decode/rename/retire, " << core.issueWidth
       << "-wide issue\n"
       << "ROB / RS      : " << core.robEntries << " / "
       << core.iqEntries << " entries\n"
       << "LQ / SQ / SB  : " << core.lqEntries << " / "
       << core.sqEntries << " / " << core.sbEntries << " entries\n"
       << "Exec units    : " << core.fus.intAlu << " IALU, "
       << core.fus.intMul << " IMUL, " << core.fus.intDiv
       << " IDIV, " << core.fus.fpAdd << " FADD, " << core.fus.fpMul
       << " FMUL, " << core.fus.fpDiv << " FDIV, "
       << core.fus.memPorts << " mem ports\n"
       << "Branch pred   : gshare " << core.bpred.phtEntries
       << "-entry PHT (" << core.bpred.historyBits
       << " history bits), BTB " << core.bpred.btbEntries << " x"
       << core.bpred.btbAssoc << "-way\n"
       << "L1I           : " << mem.l1i.sizeBytes / 1024 << " KiB "
       << mem.l1i.assoc << "-way, " << mem.l1i.hitLatency
       << "-cycle, " << mem.l1i.numMshrs << " MSHRs\n"
       << "L1D           : " << mem.l1d.sizeBytes / 1024 << " KiB "
       << mem.l1d.assoc << "-way, " << mem.l1d.hitLatency
       << "-cycle, " << mem.l1d.numMshrs << " MSHRs\n"
       << "L2 (unified)  : " << mem.l2.sizeBytes / (1024 * 1024)
       << " MiB " << mem.l2.assoc << "-way, " << mem.l2.hitLatency
       << "-cycle, " << mem.l2.numMshrs << " MSHRs\n"
       << "TLBs          : " << mem.itlb.entries
       << "-entry i/d, fully assoc., " << mem.itlb.walkCycles
       << "-cycle walker overhead (walks the L2)\n"
       << "Bus / memory  : " << mem.busOccupancy
       << "-cycle pipelined bus, " << mem.memLatency
       << "-cycle array (total L2-miss latency ~300 cycles)\n"
       << "Thread switch : " << core.drainCycles << "-cycle drain + "
       << core.switchRestartDelay
       << "-cycle restart (effective Switch_lat ~25 cycles)\n"
       << "SOE delta     : " << soe.delta
       << " cycles (counter sampling period)\n"
       << "Cycles quota  : " << soe.maxCyclesQuota
       << " cycles max residency per thread\n"
       << "Miss_lat      : " << statistics::statfmt::csv(soe.missLatency)
       << " cycles (model parameter)\n";
    out << os.str();
}

void
MachineConfig::validate() const
{
    if (core.dispatchWidth < 1 || core.issueWidth < 1 ||
        core.retireWidth < 1 || core.fetch.width < 1) {
        raiseError<InputError>(
            "pipeline widths must all be >= 1 (dispatch ",
            core.dispatchWidth, ", issue ", core.issueWidth,
            ", retire ", core.retireWidth, ", fetch ",
            core.fetch.width, ")");
    }
    if (core.robEntries < core.retireWidth) {
        raiseError<InputError>("ROB (", core.robEntries,
                               " entries) narrower than retire "
                               "width ", core.retireWidth);
    }
    if (core.iqEntries < 1 || core.lqEntries < 1 ||
        core.sqEntries < 1 || core.sbEntries < 1) {
        raiseError<InputError>("IQ/LQ/SQ/SB must all have >= 1 "
                               "entry");
    }
    if (core.fetch.bufferEntries < core.fetch.width) {
        raiseError<InputError>("fetch buffer (",
                               core.fetch.bufferEntries,
                               ") smaller than fetch width ",
                               core.fetch.width);
    }
    if (core.fus.intAlu < 1 || core.fus.memPorts < 1) {
        raiseError<InputError>("need >= 1 integer ALU and >= 1 "
                               "memory port");
    }

    validateCache(mem.l1i);
    validateCache(mem.l1d);
    validateCache(mem.l2);
    validateTlb(mem.itlb);
    validateTlb(mem.dtlb);
    if (mem.busOccupancy < 1 || mem.memLatency < 1) {
        raiseError<InputError>("bus occupancy and memory latency "
                               "must be >= 1 (got ",
                               mem.busOccupancy, ", ",
                               mem.memLatency, ")");
    }

    if (soe.delta < 1) {
        raiseError<InputError>("SOE sampling period delta must be "
                               ">= 1 cycle");
    }
    if (soe.maxCyclesQuota != 0 && soe.maxCyclesQuota > soe.delta) {
        raiseError<InputError>(
            "max-cycles quota (", soe.maxCyclesQuota,
            ") exceeds the sampling period delta (", soe.delta,
            "): threads could not all run within one window");
    }
    if (!std::isfinite(soe.missLatency) || soe.missLatency < 0.0) {
        raiseError<InputError>("SOE miss latency must be finite and "
                               ">= 0 (got ", soe.missLatency, ")");
    }
}

} // namespace harness
} // namespace soefair
