/**
 * @file
 * Golden-output regression tests: the merged stats JSON of small
 * fig9, rmhb (all registered schemes) and tiering sweeps, and of a
 * fault-injected sweep of the copy-engine schemes, must stay
 * byte-identical to the files under tests/golden/.
 *
 * This is the guard rail for the raw-speed work (docs/PERFORMANCE.md):
 * every optimization of the simulation kernel — event pooling,
 * flattened lookups, DRAM wake bounds, run-loop skip-ahead — claims to
 * be semantics-preserving, and this test pins that claim to bytes
 * rather than to eyeballed summary numbers.
 *
 * To regenerate after an *intentional* modelling change, run the test
 * binary with NOMAD_REGEN_GOLDEN=1 in the environment and commit the
 * refreshed files together with the change that explains them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/suites.hh"
#include "runner/sweep.hh"

#ifndef NOMAD_GOLDEN_DIR
#error "NOMAD_GOLDEN_DIR must point at tests/golden"
#endif

namespace nomad::runner
{
namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(NOMAD_GOLDEN_DIR) + "/" + name + ".json";
}

/** Mirror of the nomad-sweep CLI defaults used to create the files:
 *  --suite <suite> [--scheme <s>] --jobs 1 --instr <instr> --cores 2
 *  --stats-json ... plus the hardening flags in @p harden. */
std::vector<SweepRunResult>
runJobs(const std::string &suite, std::uint64_t instr,
        std::vector<SchemeKind> schemes = {},
        const HardenConfig &harden = {})
{
    SuiteOptions suiteOpts;
    suiteOpts.instrPerCore = instr;
    suiteOpts.cores = 2;
    suiteOpts.schemes = std::move(schemes);
    Sweep sweep;
    if (!buildSuite(suite, suiteOpts, sweep))
        return {};

    SweepOptions opts;
    opts.jobs = 1;
    opts.baseSeed = 12345;
    opts.wantStatsJson = true;
    opts.samplePeriod = 5000;
    opts.harden = harden;
    return sweep.run(opts);
}

std::string
mergedStats(const std::vector<SweepRunResult> &results)
{
    if (results.empty())
        return {};
    std::ostringstream out;
    Sweep::writeMergedStats(out, results);
    return out.str();
}

std::string
runSuite(const std::string &suite, std::uint64_t instr)
{
    return mergedStats(runJobs(suite, instr));
}

/** Byte-compare @p produced with tests/golden/<name>.json, or refresh
 *  the file when NOMAD_REGEN_GOLDEN=1. */
void
checkGolden(const std::string &name, const std::string &produced)
{
    ASSERT_FALSE(produced.empty());
    const std::string path = goldenPath(name);

    if (const char *regen = std::getenv("NOMAD_REGEN_GOLDEN");
        regen && regen[0] == '1') {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << path;
        out << produced;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with NOMAD_REGEN_GOLDEN=1 to create)";
    std::ostringstream expected;
    expected << in.rdbuf();

    // Report the first differing byte rather than letting gtest diff
    // two megabyte strings (its edit-distance diff exhausts memory).
    const std::string &want = expected.str();
    EXPECT_EQ(produced.size(), want.size());
    const auto [at, ignored] =
        std::mismatch(produced.begin(), produced.end(), want.begin(),
                      want.end());
    (void)ignored;
    const auto offset = static_cast<std::size_t>(at - produced.begin());
    ASSERT_TRUE(produced == want)
        << name << " stats JSON drifted from the golden file at byte "
        << offset << ": \"" << produced.substr(offset, 80)
        << "\"; if the change is an intentional modelling change, "
           "regenerate with NOMAD_REGEN_GOLDEN=1 and commit the new "
           "golden";
}

TEST(Golden, Fig9SmallStatsJsonIsByteIdentical)
{
    checkGolden("fig9_small", runSuite("fig9", 3000));
}

/** Every registered scheme on the four class representatives. */
TEST(Golden, RmhbSmallStatsJsonIsByteIdentical)
{
    checkGolden("rmhb_small", runSuite("rmhb", 20000));
}

/** Tiering across far-link latencies and access profiles. */
TEST(Golden, TieringSmallStatsJsonIsByteIdentical)
{
    checkGolden("tiering_small", runSuite("tiering", 20000));
}

/**
 * The recovery paths no clean run reaches: the CI smoke's fault spec,
 * copy timeout and invariant checks on each copy-engine scheme, one
 * filtered rmhb sweep per scheme as the CI step runs them. This pins
 * the response fault filter and the copy-timeout abort-and-refetch of
 * the PCSHRs (nomad, tdc) and the migration slots (tiering).
 */
TEST(Golden, HardenedSmallStatsJsonIsByteIdentical)
{
    HardenConfig harden;
    harden.faultSpec = "seed=7:drop-dram=0.05:stuck-copy=0.01";
    harden.copyTimeoutTicks = 30000;
    harden.checkInvariants = true;
    std::vector<SweepRunResult> all;
    for (SchemeKind s :
         {SchemeKind::Nomad, SchemeKind::Tdc, SchemeKind::Tiering}) {
        std::vector<SweepRunResult> runs =
            runJobs("rmhb", 3000, {s}, harden);
        ASSERT_EQ(runs.size(), 4u) << schemeKindName(s);
        for (SweepRunResult &r : runs) {
            ASSERT_TRUE(r.ok()) << r.report.label << ": " << r.report.error;
            all.push_back(std::move(r));
        }
    }
    checkGolden("hardened_small", mergedStats(all));
}

} // namespace
} // namespace nomad::runner
