#include "sim/fault_injector.h"

#include <cmath>

#include "trace/trace.h"

namespace crev::sim {

std::string
FaultPlan::validate() const
{
    struct ProbField
    {
        const char *name;
        double value;
    };
    const ProbField probs[] = {
        {"sweeper_stall_prob", sweeper_stall_prob},
        {"sweeper_kill_prob", sweeper_kill_prob},
        {"fault_drop_prob", fault_drop_prob},
        {"fault_duplicate_prob", fault_duplicate_prob},
        {"stw_delay_prob", stw_delay_prob},
        {"shootdown_drop_prob", shootdown_drop_prob},
        {"shootdown_late_prob", shootdown_late_prob},
        {"core_stall_prob", core_stall_prob},
        {"summary_corrupt_prob", summary_corrupt_prob},
        {"quarantine_drop_prob", quarantine_drop_prob},
        {"quarantine_duplicate_prob", quarantine_duplicate_prob},
    };
    for (const auto &p : probs) {
        if (std::isnan(p.value) || p.value < 0.0 || p.value > 1.0)
            return std::string("FaultPlan::") + p.name +
                   " must be a probability in [0, 1]";
    }
    if (window_begin > window_end)
        return "FaultPlan window is inverted: window_begin must not "
               "exceed window_end";
    struct DurationField
    {
        const char *name;
        double prob;
        Cycles cycles;
    };
    const DurationField durations[] = {
        {"sweeper_stall_cycles", sweeper_stall_prob,
         sweeper_stall_cycles},
        {"stw_delay_cycles", stw_delay_prob, stw_delay_cycles},
        {"shootdown_late_cycles", shootdown_late_prob,
         shootdown_late_cycles},
        {"core_stall_cycles", core_stall_prob, core_stall_cycles},
    };
    for (const auto &d : durations) {
        if (d.prob > 0.0 && d.cycles == 0)
            return std::string("FaultPlan::") + d.name +
                   " is 0 but its probability is nonzero: a zero-cycle "
                   "stall/delay injects nothing; set the duration or "
                   "zero the probability";
    }
    return "";
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
}

bool
FaultInjector::roll(SimThread &t, double prob)
{
    if (prob <= 0.0 || !inWindow(t.now()))
        return false;
    return rng_.chance(prob);
}

void
FaultInjector::fire(SimThread &t, trace::FaultAction action)
{
    if (trace::Tracer *tr = t.scheduler().tracer())
        tr->record(t.id(), t.core(), t.now(),
                   trace::EventType::kFaultInject,
                   static_cast<std::uint8_t>(action));
}

Cycles
FaultInjector::sweeperStall(SimThread &t)
{
    if (!roll(t, plan_.sweeper_stall_prob))
        return 0;
    ++counters_.sweeper_stalls;
    fire(t, trace::FaultAction::kSweeperStall);
    return plan_.sweeper_stall_cycles;
}

bool
FaultInjector::sweeperKill(SimThread &t)
{
    if (counters_.sweeper_kills >= plan_.max_sweeper_kills)
        return false;
    if (!roll(t, plan_.sweeper_kill_prob))
        return false;
    ++counters_.sweeper_kills;
    fire(t, trace::FaultAction::kSweeperKill);
    return true;
}

bool
FaultInjector::dropFaultDelivery(SimThread &t)
{
    if (counters_.faults_dropped >= plan_.max_fault_drops)
        return false;
    if (!roll(t, plan_.fault_drop_prob))
        return false;
    ++counters_.faults_dropped;
    fire(t, trace::FaultAction::kFaultDrop);
    return true;
}

bool
FaultInjector::duplicateFaultDelivery(SimThread &t)
{
    if (!roll(t, plan_.fault_duplicate_prob))
        return false;
    ++counters_.faults_duplicated;
    fire(t, trace::FaultAction::kFaultDuplicate);
    return true;
}

Cycles
FaultInjector::stwEntryDelay(SimThread &t)
{
    if (!roll(t, plan_.stw_delay_prob))
        return 0;
    ++counters_.stw_delays;
    fire(t, trace::FaultAction::kStwDelay);
    return plan_.stw_delay_cycles;
}

bool
FaultInjector::dropShootdownIpi(SimThread &t, unsigned target_core)
{
    if (counters_.shootdown_drops >= plan_.max_shootdown_drops)
        return false;
    if (!roll(t, plan_.shootdown_drop_prob))
        return false;
    ++counters_.shootdown_drops;
    (void)target_core;
    fire(t, trace::FaultAction::kShootdownDrop);
    return true;
}

Cycles
FaultInjector::shootdownAckDelay(SimThread &t, unsigned target_core)
{
    if (!roll(t, plan_.shootdown_late_prob))
        return 0;
    ++counters_.shootdown_lates;
    (void)target_core;
    fire(t, trace::FaultAction::kShootdownLate);
    return plan_.shootdown_late_cycles;
}

Cycles
FaultInjector::coreStall(SimThread &t)
{
    if (counters_.core_stalls >= plan_.max_core_stalls)
        return 0;
    if (!roll(t, plan_.core_stall_prob))
        return 0;
    ++counters_.core_stalls;
    fire(t, trace::FaultAction::kCoreStall);
    return plan_.core_stall_cycles;
}

bool
FaultInjector::corruptSummaryWord(SimThread &t,
                                  std::uint64_t *entropy_out)
{
    if (counters_.summary_corruptions >= plan_.max_summary_corruptions)
        return false;
    if (!roll(t, plan_.summary_corrupt_prob))
        return false;
    ++counters_.summary_corruptions;
    *entropy_out = rng_.next();
    fire(t, trace::FaultAction::kSummaryCorrupt);
    return true;
}

bool
FaultInjector::dropQuarantineHandoff(SimThread &t)
{
    if (counters_.quarantine_drops >= plan_.max_quarantine_drops)
        return false;
    if (!roll(t, plan_.quarantine_drop_prob))
        return false;
    ++counters_.quarantine_drops;
    fire(t, trace::FaultAction::kQuarantineDrop);
    return true;
}

bool
FaultInjector::duplicateQuarantineHandoff(SimThread &t)
{
    if (!roll(t, plan_.quarantine_duplicate_prob))
        return false;
    ++counters_.quarantine_duplicates;
    fire(t, trace::FaultAction::kQuarantineDuplicate);
    return true;
}

} // namespace crev::sim
