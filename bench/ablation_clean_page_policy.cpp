/**
 * @file
 * Ablation (paper §7.6): the "capability loads always trap" PTE
 * disposition for clean pages vs the default keep-generations-fresh
 * behaviour, and the effect of clean-page detection itself.
 *
 * With always-trap, capability-clean pages need no generation refresh
 * during revocation (the background pass skips them entirely); the
 * cost is an extra fault on the first tagged load from such a page.
 * The workload here (libquantum-like: a few huge pointer-free arrays
 * plus a small pointer-rich core) is the case §7.6 targets.
 */

#include "bench_util.h"

using namespace crev;

namespace {

core::RunMetrics
runWith(bool clean_detect, bool always_trap)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy = workload::specPolicy();
    cfg.reloaded_clean_detect = clean_detect;
    cfg.always_trap_clean = always_trap;
    core::Machine m(cfg);
    workload::runSpec(m, workload::specProfile("libquantum"));
    return m.metrics();
}

} // namespace

int
main()
{
    benchutil::banner(
        "Ablation: clean-page handling in Reloaded (libquantum)",
        "paper §7.6");

    stats::Table table({"mode", "wall_ms", "pages_swept",
                        "barrier_faults", "pte_updates(shootdowns)"});

    struct Mode
    {
        const char *name;
        bool detect;
        bool trap;
    };
    std::vector<core::RunMetrics> runs;
    for (const Mode &mode :
         {Mode{"no-detect", false, false},
          Mode{"detect", true, false},
          Mode{"detect+always-trap", true, true}}) {
        std::fprintf(stderr, "  running %s...\n", mode.name);
        const auto &m = runs.emplace_back(runWith(mode.detect, mode.trap));
        table.addRow({mode.name,
                      stats::Table::fmt(cyclesToMillis(m.wall_cycles)),
                      std::to_string(m.sweep.pages_swept),
                      std::to_string(m.mmu.load_barrier_faults),
                      std::to_string(m.mmu.tlb_shootdowns)});
    }

    table.print();

    // The closing lines are computed from the rows above, so they say
    // what this run measured rather than what the paper leads one to
    // expect.
    const core::RunMetrics &no_detect = runs[0];
    const core::RunMetrics &detect = runs[1];
    const core::RunMetrics &trap = runs[2];
    auto change = [](std::uint64_t with, std::uint64_t without) {
        if (with < without)
            return "cuts";
        return with > without ? "raises" : "does not change";
    };
    std::printf("\nClean-page detection %s pages_swept (%llu with it, "
                "%llu without).\n",
                change(detect.sweep.pages_swept,
                       no_detect.sweep.pages_swept),
                static_cast<unsigned long long>(detect.sweep.pages_swept),
                static_cast<unsigned long long>(
                    no_detect.sweep.pages_swept));
    std::printf("The always-trap disposition %s TLB shootdowns (%llu "
                "with it, %llu without) and takes %llu barrier faults "
                "(%llu without).\n",
                change(trap.mmu.tlb_shootdowns, detect.mmu.tlb_shootdowns),
                static_cast<unsigned long long>(trap.mmu.tlb_shootdowns),
                static_cast<unsigned long long>(
                    detect.mmu.tlb_shootdowns),
                static_cast<unsigned long long>(
                    trap.mmu.load_barrier_faults),
                static_cast<unsigned long long>(
                    detect.mmu.load_barrier_faults));
    return 0;
}
