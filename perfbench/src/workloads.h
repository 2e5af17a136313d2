/**
 * @file
 * The benchmark's own load-generator loops: the spec, pgbench and grpc cell
 * sets, driven only through core::Machine, core::Mutator and
 * sim::SimQueue. The loops mirror src/workload's runSpec, runPgbench
 * and runGrpcQps call for call (so a cell reproduces the simulated
 * results of the calibrated workload it stands for) and reuse its
 * tables: SpecProfile, PgbenchConfig, GrpcConfig and the policies.
 * Every call into a layer goes through a Span, which is free when the
 * cell runs untraced.
 */

#ifndef CREV_PERFBENCH_WORKLOADS_H_
#define CREV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "spans.h"
#include "stats/summary.h"
#include "workload/spec.h"

namespace perfbench {

enum class Kind {
    kSpec,        //!< one SPEC-like profile as a batch job
    kPgbench,     //!< closed loop, think-time paced (figs 5-7)
    kPgbenchRate, //!< open loop at a fixed rate (Table 1)
    kGrpc,        //!< closed loop, 80 messages outstanding (fig 8)
};

struct Cell
{
    std::string name; //!< "<workload>/<profile or loop>/<strategy>"
    Kind kind = Kind::kSpec;
    crev::core::Strategy strategy = crev::core::Strategy::kBaseline;
    crev::workload::SpecProfile profile; //!< kSpec only
};

/** The cell set of @p workload ("spec", "pgbench", "grpc"); empty when
 *  the name is unknown. Baseline cells come first in each group. */
std::vector<Cell> cellsFor(const std::string &workload);

/** Bench name of a strategy ("paint_sync" rather than "paint+sync"). */
const char *strategyKey(crev::core::Strategy s);

struct CellResult
{
    bool ok = true;
    std::string error;
    crev::core::RunMetrics metrics;
    /** Per-transaction simulated latency (pgbench, grpc). For the rate
     *  cell it is timed from the scheduled send (lag + service). */
    crev::stats::Samples latency_ms;
    /** Generator lateness per transaction (rate cell only). */
    crev::stats::Samples lag_ms;
    /** Transactions or messages completed; allocations for spec. */
    std::uint64_t completed = 0;
    /** Simulated time the load generator was active. */
    crev::Cycles client_cycles = 0;
    /** Machine construction, and construction plus spawn. */
    double ctor_s = 0;
    double setup_s = 0;
    double run_s = 0;
    /** Whole cell: setup, run and metrics collection. */
    double host_s = 0;
    bool fibers = false;
    unsigned lanes = 0;
    /** Token grants, from the virtual-time tracer (traced cells only). */
    std::uint64_t switches = 0;
    std::uint64_t trace_dropped = 0;
};

/** Run @p cell with workload seed @p seed. A non-null @p rec traces the
 *  cell: spans around every layer call plus the virtual-time tracer. */
CellResult runCell(const Cell &cell, std::uint64_t seed, Recorder *rec);

} // namespace perfbench

#endif // CREV_PERFBENCH_WORKLOADS_H_
