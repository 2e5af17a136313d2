/**
 * @file
 * Figure 4: bus (DRAM) traffic overheads of Reloaded, Cornucopia and
 * CHERIvoke on the SPEC-like workloads, plus the baseline transaction
 * count and Reloaded's traffic as a percentage of Cornucopia's.
 *
 * Paper anchors: omnetpp 45% (Reloaded) vs 50% (Cornucopia);
 * xalancbmk 60% vs 68%; the median Reloaded:Cornucopia traffic ratio
 * is 87% — Reloaded never rescans pages, so the paper finds it always
 * moves less data than Cornucopia. The closing line compares the
 * exact transaction counts and names every benchmark where that does
 * not hold here.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;

int
main()
{
    benchutil::banner("Figure 4: SPEC bus traffic overheads",
                      "paper fig. 4");

    benchutil::SpecRunner runner;
    std::vector<core::Strategy> all{core::Strategy::kBaseline};
    all.insert(all.end(), benchutil::kSafe.begin(),
               benchutil::kSafe.end());
    runner.prefetch(workload::revokingSpecNames(), all);

    stats::Table table({"benchmark", "baseline_tx", "cherivoke",
                        "cornucopia", "reloaded", "rel/corn"});

    std::vector<double> ratios;
    std::string exceeded; // benchmarks where Reloaded > Cornucopia
    unsigned n_exceeded = 0;

    for (const auto &name : workload::revokingSpecNames()) {
        const auto &base = runner.run(name, core::Strategy::kBaseline);
        std::vector<std::string> row{
            name, std::to_string(base.bus_transactions_total)};
        std::uint64_t corn_tx = 0, rel_tx = 0;
        for (core::Strategy s : benchutil::kSafe) {
            const auto &m = runner.run(name, s);
            row.push_back(stats::Table::pct(overhead(
                static_cast<double>(m.bus_transactions_total),
                static_cast<double>(base.bus_transactions_total))));
            if (s == core::Strategy::kCornucopia)
                corn_tx = m.bus_transactions_total;
            if (s == core::Strategy::kReloaded)
                rel_tx = m.bus_transactions_total;
        }
        if (rel_tx > corn_tx) {
            if (n_exceeded++ > 0)
                exceeded += ", ";
            exceeded += name + " (" + std::to_string(rel_tx) + " vs " +
                        std::to_string(corn_tx) + " transactions)";
        }
        const double ratio = corn_tx > 0 ? static_cast<double>(rel_tx) /
                                               static_cast<double>(corn_tx)
                                         : 1.0;
        ratios.push_back(ratio);
        row.push_back(stats::Table::pct(ratio));
        table.addRow(row);
    }

    table.print();

    std::sort(ratios.begin(), ratios.end());
    std::printf("\nMedian Reloaded traffic as %% of Cornucopia: %s "
                "(paper: 87%%).\n",
                stats::Table::pct(ratios[ratios.size() / 2]).c_str());
    if (n_exceeded == 0)
        std::printf("Reloaded <= Cornucopia in bus transactions on all %zu "
                    "benchmarks.\n",
                    ratios.size());
    else
        std::printf("Reloaded > Cornucopia in bus transactions on %u of "
                    "%zu benchmarks: %s.\n",
                    n_exceeded, ratios.size(), exceeded.c_str());
    return 0;
}
