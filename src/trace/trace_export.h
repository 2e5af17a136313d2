/**
 * @file
 * Trace exporters: Chrome trace-event JSON (openable in
 * chrome://tracing or ui.perfetto.dev) and a text phase summary that
 * regenerates fig. 9's epoch decomposition directly from the event
 * stream.
 *
 * The JSON uses integer timestamps where one `ts` unit is one
 * simulated cycle (the viewer's microseconds are our cycles; the
 * `otherData.clock` field records the convention). Integer-only
 * formatting keeps the export byte-deterministic across runs.
 */

#ifndef CREV_TRACE_TRACE_EXPORT_H_
#define CREV_TRACE_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "stats/summary.h"
#include "trace/trace.h"

namespace crev::trace {

/** Thread-name metadata for the exporter. */
struct ThreadInfo
{
    unsigned tid = 0;
    std::string name;
};

/**
 * @p s as the body of a JSON string: '"' and '\\' are backslash-
 * escaped and every control character U+0000-U+001F becomes \u00XX,
 * as RFC 8259 requires. Shared by every JSON writer in the tree.
 */
std::string jsonEscape(const std::string &s);

/**
 * Export the whole trace as Chrome trace-event JSON. Scheduler run
 * slices become complete ("X") events under pid 1; STW windows, epoch
 * phases, and quarantine blocks become duration ("B"/"E") pairs under
 * pid 0; shootdowns, watchdog escalations, and injected faults become
 * instants ("i"). Spans still open at the end of the trace are closed
 * at the largest timestamp so every "B" has a matching "E".
 */
std::string chromeJson(const Tracer &tracer,
                       const std::vector<ThreadInfo> &threads);

/** Aggregate for one phase (or the STW windows). */
struct PhaseStat
{
    std::uint64_t spans = 0;   //!< completed begin/end pairs
    Cycles total_cycles = 0;   //!< summed span durations
    stats::Samples micros;     //!< per-span durations, microseconds
};

/** Fig. 9's decomposition, recomputed from the raw event stream. */
struct PhaseSummary
{
    PhaseStat phases[kNumPhases]; //!< indexed by Phase
    PhaseStat stw;                //!< kStwBegin/kStwEnd windows
    PhaseStat quarantine_blocked; //!< allocator backpressure waits

    std::uint64_t events = 0;     //!< events retained in the buffers
    std::uint64_t dropped = 0;    //!< events lost to ring wrap
    /** Begins without ends (trace cut short) plus ends without begins
     *  (begin dropped by ring wrap). Zero on a complete trace. */
    std::uint64_t unmatched = 0;

    std::uint64_t tlb_shootdowns = 0;
    std::uint64_t watchdog_escalations = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t recovery_attempts = 0;
    std::uint64_t recovery_outcomes = 0;
};

/** Walk every buffer and pair up the phase/STW/block spans. */
PhaseSummary summarize(const Tracer &tracer);

/** Human-readable fig. 9-style table of @p s (microseconds). */
std::string phaseSummaryText(const PhaseSummary &s);

} // namespace crev::trace

#endif // CREV_TRACE_TRACE_EXPORT_H_
