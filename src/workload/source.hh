/**
 * @file
 * The instruction-source abstraction.
 *
 * The core consumes micro-ops through InstStream, which pulls from
 * an InstSource: either a live WorkloadGenerator (execution-driven)
 * or a TraceReplaySource (trace-driven, the paper's LIT-style
 * methodology). Sources are forward-only; replay after squashes is
 * InstStream's job.
 */

#ifndef SOEFAIR_WORKLOAD_SOURCE_HH
#define SOEFAIR_WORKLOAD_SOURCE_HH

#include "isa/micro_op.hh"

namespace soefair
{
namespace workload
{

class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** Produce the next micro-op in program order. */
    virtual isa::MicroOp next() = 0;

    /**
     * next(), written into `out`. A source that can build the op in
     * place overrides this to spare the caller a copy.
     */
    virtual void nextInto(isa::MicroOp &out) { out = next(); }
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_SOURCE_HH
