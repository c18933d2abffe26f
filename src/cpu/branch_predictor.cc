#include "cpu/branch_predictor.hh"

#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

BranchPredictor::BranchPredictor(const BranchPredictorConfig &config,
                                 statistics::Group *stats_parent)
    : statsGroup("bpred", stats_parent),
      lookups(&statsGroup, "lookups", "branch predictions made"),
      mispredicts(&statsGroup, "mispredicts",
                  "branches the front end could not follow"),
      btbMisses(&statsGroup, "btbMisses",
                "taken branches with no BTB target"),
      cfg(config)
{
    soefair_assert(isPow2(cfg.phtEntries), "phtEntries must be pow2");
    soefair_assert(isPow2(cfg.btbEntries), "btbEntries must be pow2");
    soefair_assert(cfg.btbEntries % cfg.btbAssoc == 0,
                   "btb sets not integral");
    btbSetMask = cfg.btbEntries / cfg.btbAssoc - 1;
    pht.assign(cfg.phtEntries, 1); // weakly not-taken
    btb.resize(cfg.btbEntries);
}

std::size_t
BranchPredictor::phtIndex(Addr pc) const
{
    const std::uint64_t mask = cfg.phtEntries - 1;
    const std::uint64_t hist = history &
        ((std::uint64_t(1) << cfg.historyBits) - 1);
    return std::size_t(((pc >> 2) ^ hist) & mask);
}

const BranchPredictor::BtbEntry *
BranchPredictor::btbLookup(Addr pc) const
{
    const std::size_t set = std::size_t((pc >> 2) & btbSetMask);
    const BtbEntry *base = &btb[set * cfg.btbAssoc];
    for (unsigned w = 0; w < cfg.btbAssoc; ++w) {
        if (base[w].valid && base[w].tag == pc)
            return &base[w];
    }
    return nullptr;
}

void
BranchPredictor::btbInsert(Addr pc, Addr target)
{
    const std::size_t set = std::size_t((pc >> 2) & btbSetMask);
    BtbEntry *base = &btb[set * cfg.btbAssoc];
    BtbEntry *victim = &base[0];
    for (unsigned w = 0; w < cfg.btbAssoc; ++w) {
        if (base[w].valid && base[w].tag == pc) {
            victim = &base[w];
            break;
        }
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = pc;
    victim->target = target;
    victim->lruStamp = ++lruCounter;
}

BranchPredictor::Prediction
BranchPredictor::predict(const isa::MicroOp &op) const
{
    Prediction p;
    if (op.op == isa::OpClass::BranchUncond) {
        p.taken = true;
    } else {
        p.taken = pht[phtIndex(op.pc)] >= 2;
    }
    if (const BtbEntry *e = btbLookup(op.pc)) {
        p.targetKnown = true;
        p.target = e->target;
    }
    return p;
}

bool
BranchPredictor::update(const isa::MicroOp &op, const Prediction &pred)
{
    ++lookups;

    bool correct;
    if (!pred.taken && !op.taken) {
        correct = true;
    } else if (pred.taken != op.taken) {
        correct = false;
    } else {
        // Both taken: the front end also needs the right target.
        correct = pred.targetKnown && pred.target == op.target;
        if (!pred.targetKnown)
            ++btbMisses;
    }
    if (!correct)
        ++mispredicts;

    if (op.op == isa::OpClass::BranchCond) {
        std::uint8_t &ctr = pht[phtIndex(op.pc)];
        if (op.taken && ctr < 3)
            ++ctr;
        else if (!op.taken && ctr > 0)
            --ctr;
        history = (history << 1) | (op.taken ? 1 : 0);
    }
    if (op.taken)
        btbInsert(op.pc, op.target);

    return correct;
}

} // namespace cpu
} // namespace soefair
