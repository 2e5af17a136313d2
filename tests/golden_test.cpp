/**
 * @file
 * Golden RunMetrics fingerprints: every strategy on a fixed cell set
 * (three SPEC profiles, a short pgbench run, a short gRPC run, the
 * chaos plan, and the cross-core churn at 1/2/4 allocator shards with
 * and without faults) must reproduce the hash recorded in
 * tests/golden_fingerprints.txt.
 *
 * The table is the reference for every host-side change: there is no
 * second "reference" code path to compare against, so any edit that
 * moves a simulated number fails here with the cell's name and both
 * hashes. An intentional change to the simulation regenerates the
 * table with
 *
 *     golden_test --regenerate
 *
 * and states the reason in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::MachineConfig;
using core::RunMetrics;
using core::Strategy;

/** SPEC profiles are capped at this many post-ramp allocations so the
 *  table stays a fast test; xalancbmk still runs several epochs. */
constexpr std::uint64_t kSpecAllocCap = 60'000;

/** One golden cell: its table name and the run that produces it. */
struct Cell
{
    std::string name;
    std::function<RunMetrics()> run;
};

/** gtest prints a failing parameter by its table name. */
void
PrintTo(const Cell &c, std::ostream *os)
{
    *os << c.name;
}

RunMetrics
runSpecCell(Strategy s, const std::string &profile)
{
    workload::SpecProfile p = workload::specProfile(profile);
    p.total_allocs = std::min(p.total_allocs, kSpecAllocCap);
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    core::Machine m(cfg);
    workload::runSpec(m, p);
    return m.metrics();
}

std::vector<Cell>
goldenCells()
{
    std::vector<Cell> cells;
    for (Strategy s : core::kAllStrategies) {
        const std::string sn = core::strategyName(s);
        auto add = [&](const std::string &workload,
                       std::function<RunMetrics()> run) {
            cells.push_back({workload + "/" + sn, std::move(run)});
        };
        for (const char *profile :
             {"xalancbmk", "libquantum", "hmmer_retro"})
            add(std::string("spec-") + profile,
                [s, profile] { return runSpecCell(s, profile); });
        add("pgbench", [s] {
            workload::PgbenchConfig cfg;
            cfg.transactions = 400;
            return workload::runPgbench(s, cfg).metrics;
        });
        add("grpc", [s] {
            workload::GrpcConfig cfg;
            cfg.total_messages = 2000;
            return workload::runGrpcQps(s, cfg).metrics;
        });
        add("chaos", [s] { return test::runChaos(test::chaosConfig(s)); });
        for (bool chaos : {false, true})
            for (unsigned ac : {1u, 2u, 4u})
                add("xcore-a" + std::to_string(ac) +
                        (chaos ? "-chaos" : ""),
                    [s, ac, chaos] {
                        return test::runCrossCore(
                            test::crossCoreConfig(s, ac, chaos));
                    });
    }
    return cells;
}

std::string
cellHash(const Cell &c)
{
    return test::fingerprintHash(test::fingerprint(c.run()));
}

/** The checked-in table: cell name -> hash. */
std::map<std::string, std::string>
loadTable()
{
    std::map<std::string, std::string> table;
    std::ifstream in(CREV_GOLDEN_TABLE);
    std::string name, hash;
    while (in >> name) {
        if (name[0] == '#') {
            std::getline(in, name);
            continue;
        }
        in >> hash;
        table[name] = hash;
    }
    return table;
}

int
regenerate()
{
    std::ofstream out(CREV_GOLDEN_TABLE);
    out << "# Golden RunMetrics fingerprint hashes "
           "(tests/golden_test.cpp).\n"
           "# Regenerate with `golden_test --regenerate` only for an\n"
           "# intentional simulation change, and state why in "
           "CHANGES.md.\n";
    for (const Cell &c : goldenCells()) {
        const std::string h = cellHash(c);
        out << c.name << " " << h << "\n";
        std::cout << c.name << " " << h << std::endl;
    }
    return out ? 0 : 1;
}

class Golden : public ::testing::TestWithParam<Cell>
{
};

TEST_P(Golden, FingerprintMatchesTable)
{
    static const std::map<std::string, std::string> table = loadTable();
    const Cell &c = GetParam();
    const auto it = table.find(c.name);
    ASSERT_NE(it, table.end())
        << "cell " << c.name << " missing from " << CREV_GOLDEN_TABLE;
    const std::string actual = cellHash(c);
    const std::string &expected = it->second;
    EXPECT_EQ(actual, expected) << "golden cell " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, Golden, ::testing::ValuesIn(goldenCells()),
    [](const ::testing::TestParamInfo<Cell> &info) {
        std::string id;
        for (char ch : info.param.name)
            id += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
        return id;
    });

/** Every table row names a live cell (no stale entries). */
TEST(GoldenTable, HasNoStaleRows)
{
    std::map<std::string, std::string> table = loadTable();
    ASSERT_FALSE(table.empty()) << "cannot read " << CREV_GOLDEN_TABLE;
    for (const Cell &c : goldenCells())
        table.erase(c.name);
    for (const auto &[name, hash] : table)
        ADD_FAILURE() << "stale golden row " << name << " " << hash;
}

} // namespace
} // namespace crev

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--regenerate") == 0)
            return crev::regenerate();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
