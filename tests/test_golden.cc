/**
 * @file
 * Golden-output regression tests: the merged stats JSON of small
 * fig9, rmhb (all registered schemes) and tiering sweeps, of a
 * fault-injected sweep of the copy-engine schemes, and of the line
 * caches under a tiny DC and MSHR file, must stay
 * byte-identical to the files under tests/golden/. So must the DRAM
 * command order: every read's completion tick under a saturating
 * random load on each DRAM preset (dram_order.json), which the system
 * goldens only see through aggregate stats.
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

#include "dram/device.hh"
#include "runner/suites.hh"
#include "runner/sweep.hh"
#include "sim/rng.hh"

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

/** The value of scalar @p stat of component @p comp in one run's
 *  stats JSON (Statistics::dumpJson nests `{"comp": {"stat":
 *  {..., "value": N}}}`), or -1 when absent. */
double
scalarOf(const std::string &json, const std::string &comp,
         const std::string &stat)
{
    const std::size_t c = json.find("\"" + comp + "\": {");
    if (c == std::string::npos)
        return -1;
    const std::size_t s = json.find("\"" + stat + "\": {", c);
    if (s == std::string::npos)
        return -1;
    const std::size_t v = json.find("\"value\": ", s);
    if (v == std::string::npos)
        return -1;
    return std::stod(json.substr(v + 9));
}

/**
 * The line caches' (TiD, Alloy, TDRAM) victim, writeback and
 * back-pressure paths, which the rmhb and fig9 goldens never reach
 * (their line-cache runs have no conflict eviction, dirty writeback
 * or reject): a 16-frame DC with 4 MSHRs and a 2-entry controller
 * queue on cact and libq, under invariant checks and the drain
 * audit. Alloy and TDRAM hit nothing at 16 frames, so one job of
 * each runs a 256-frame DC to reach their hit (and Alloy's predictor)
 * paths.
 */
TEST(Golden, LineCacheSmallStatsJsonIsByteIdentical)
{
    struct Shape
    {
        SchemeKind scheme;
        const char *workload;
        std::uint64_t dcFrames;
    };
    const Shape shapes[] = {
        {SchemeKind::Tid, "cact", 16},
        {SchemeKind::Tid, "libq", 16},
        {SchemeKind::Alloy, "cact", 16},
        {SchemeKind::Alloy, "libq", 16},
        {SchemeKind::Alloy, "cact", 256},
        {SchemeKind::Tdram, "cact", 16},
        {SchemeKind::Tdram, "libq", 16},
        {SchemeKind::Tdram, "cact", 256},
    };
    Sweep sweep;
    for (const Shape &sh : shapes) {
        SuiteOptions suiteOpts;
        suiteOpts.instrPerCore = 20000;
        suiteOpts.cores = 2;
        SystemConfig cfg = suiteConfig(suiteOpts, sh.scheme, sh.workload);
        cfg.dcFrames = sh.dcFrames;
        cfg.tid.mshrs = cfg.alloy.mshrs = cfg.tdram.mshrs = 4;
        cfg.tid.controllerQueueDepth = cfg.alloy.controllerQueueDepth =
            cfg.tdram.controllerQueueDepth = 2;
        sweep.add(SimJob{std::string(schemeKindName(sh.scheme)) + "/" +
                             sh.workload + "/" +
                             std::to_string(sh.dcFrames),
                         cfg,
                         {}});
    }
    SweepOptions opts;
    opts.jobs = 1;
    opts.baseSeed = 12345;
    opts.wantStatsJson = true;
    opts.samplePeriod = 5000;
    opts.harden.checkInvariants = true;
    const std::vector<SweepRunResult> runs = sweep.run(opts);
    ASSERT_EQ(runs.size(), std::size(shapes));

    // The golden only guards these paths if the runs reach them.
    auto sum = [&](const char *comp, const char *stat) {
        double total = 0;
        for (const SweepRunResult &r : runs) {
            const double v = scalarOf(r.statsJson, comp, stat);
            if (v > 0)
                total += v;
        }
        return total;
    };
    for (const SweepRunResult &r : runs)
        ASSERT_TRUE(r.ok()) << r.report.label << ": " << r.report.error;
    for (const char *comp : {"tid", "alloy", "tdram"}) {
        for (const char *stat : {"dcHits", "conflictEvictions",
                                 "dirtyWritebacks", "rejects"}) {
            EXPECT_GT(sum(comp, stat), 0.0) << comp << "." << stat;
        }
    }
    EXPECT_GT(sum("tid", "dcMissesMerged"), 0.0);
    EXPECT_GT(sum("alloy", "spuriousFetches"), 0.0);
    // Predicted hits that missed wait behind the on-package probe.
    EXPECT_GT(sum("alloy", "dcMisses"),
              sum("alloy", "missPredictions") -
                  sum("alloy", "spuriousFetches"));
    checkGolden("line_cache_small", mergedStats(runs));
}

/** What the DRAM-order drive observed of one channel. */
struct ChannelLog
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readRefusals = 0;
    std::uint64_t writeRefusals = 0;
    std::size_t peakReadQueue = 0;
    std::size_t peakWriteQueue = 0;
    /** Write queue fell from the high to the low watermark while
     *  reads were queued. */
    std::uint64_t drains = 0;
    bool aboveHigh = false;
};

/**
 * Drive one DRAM device with a seeded random mix of reads and writes
 * over four rows per bank, and return every read's completion tick
 * (in acceptance order), per-channel observations and the device
 * stats as JSON. Three bursts shift the read/write mix (read-heavy,
 * write-heavy, both saturating) and are separated by idle gaps long
 * enough for refreshes to fall due while the channels sleep. A
 * quarter of the requests reuse a recent block, so reads forward from
 * the write queue and writes merge. It also asserts that the load
 * filled both queues, crossed the write-drain watermarks, forwarded,
 * merged, refreshed, and saw row hits, misses and conflicts.
 */
std::string
driveDramOrder(const DramTiming &t, std::uint64_t seed)
{
    Simulation sim;
    DramDevice dev(sim, "dram", t);
    Rng rng(seed);

    const Addr row_stride = static_cast<Addr>(t.channels) *
                            t.ranksPerChannel * t.banksPerRank() *
                            t.rowBytes;
    const Addr span = 4 * row_stride;
    std::vector<Addr> recent(16, 0);
    auto pick = [&]() -> Addr {
        if (rng.chance(0.25))
            return recent[rng.nextRange(recent.size())];
        const Addr a = blockAlign(rng.nextRange(span));
        recent[rng.nextRange(recent.size())] = a;
        return a;
    };
    static constexpr Category ReadCats[] = {
        Category::Demand, Category::Fill, Category::Metadata};
    static constexpr Category WriteCats[] = {Category::Demand,
                                             Category::Writeback};

    std::vector<Tick> done;
    std::vector<ChannelLog> logs(t.channels);
    MemRequestPtr read;
    MemRequestPtr write;
    std::uint32_t read_ch = 0;
    std::uint32_t write_ch = 0;

    struct Burst
    {
        double readRate;  ///< Reads offered per peak CAS slot.
        double writeRate; ///< Writes offered per peak CAS slot.
        Tick ticks;
        Tick gap;
    };
    // Offered rates are multiples of the device's peak CAS rate.
    const double peak = static_cast<double>(t.channels) /
                        (static_cast<double>(t.burstCycles) * t.clkRatio);
    const Tick refi = static_cast<Tick>(t.tREFI) * t.clkRatio;
    const Burst bursts[] = {{1.5, 0.3, 2 * refi, refi + refi / 2},
                            {0.3, 1.5, 2 * refi, 3 * refi},
                            {1.0, 1.0, 2 * refi, 0}};
    for (const Burst &b : bursts) {
        for (Tick i = 0; i < b.ticks; ++i) {
            if (!read && rng.chance(b.readRate * peak)) {
                const Addr a = pick();
                read_ch = dev.channelOf(a);
                const std::size_t idx = done.size();
                done.push_back(0);
                read = makeRequest(
                    a, false, ReadCats[rng.nextRange(3)],
                    MemSpace::OffPackage, sim.now(),
                    [log = &done, idx](Tick when) {
                        (*log)[idx] = when;
                    });
            }
            if (!write && rng.chance(b.writeRate * peak)) {
                const Addr a = pick();
                write_ch = dev.channelOf(a);
                write = makeRequest(a, true, WriteCats[rng.nextRange(2)],
                                    MemSpace::OffPackage, sim.now());
            }
            if (read) {
                if (dev.tryAccess(read, nullptr)) {
                    ++logs[read_ch].reads;
                    read.reset();
                } else {
                    ++logs[read_ch].readRefusals;
                }
            }
            if (write) {
                if (dev.tryAccess(write, nullptr)) {
                    ++logs[write_ch].writes;
                    write.reset();
                } else {
                    ++logs[write_ch].writeRefusals;
                }
            }
            sim.run(1);
            for (std::uint32_t c = 0; c < t.channels; ++c) {
                ChannelLog &log = logs[c];
                const std::size_t rq = dev.channel(c).readQueueSize();
                const std::size_t wq = dev.channel(c).writeQueueSize();
                log.peakReadQueue = std::max(log.peakReadQueue, rq);
                log.peakWriteQueue = std::max(log.peakWriteQueue, wq);
                if (wq >= t.writeHighWatermark)
                    log.aboveHigh = true;
                if (log.aboveHigh && wq <= t.writeLowWatermark &&
                    rq > 0) {
                    ++log.drains;
                    log.aboveHigh = false;
                }
            }
        }
        sim.run(b.gap);
    }
    // Drain: every accepted read completes (the pending ones were
    // never accepted and are dropped with their callbacks).
    if (read)
        done.pop_back();
    for (int i = 0; i < 1000 &&
                    std::find(done.begin(), done.end(), Tick(0)) !=
                        done.end();
         ++i) {
        sim.run(1000);
    }

    // Coverage of the behaviours the golden is meant to pin.
    std::size_t peak_read = 0;
    std::size_t peak_write = 0;
    std::uint64_t drains = 0;
    for (const ChannelLog &log : logs) {
        peak_read = std::max(peak_read, log.peakReadQueue);
        peak_write = std::max(peak_write, log.peakWriteQueue);
        drains += log.drains;
    }
    EXPECT_EQ(std::count(done.begin(), done.end(), Tick(0)), 0)
        << t.name << ": every accepted read must complete";
    EXPECT_EQ(peak_read, t.readQueueDepth) << t.name;
    EXPECT_EQ(peak_write, t.writeQueueDepth) << t.name;
    EXPECT_GT(drains, 0u) << t.name;
    const DramStats &s = dev.stats();
    EXPECT_GT(s.forwards.value(), 0.0) << t.name;
    EXPECT_GT(s.mergedWrites.value(), 0.0) << t.name;
    EXPECT_GT(s.refreshes.value(), 0.0) << t.name;
    EXPECT_GT(s.rowHits.value(), 0.0) << t.name;
    EXPECT_GT(s.rowMisses.value(), 0.0) << t.name;
    EXPECT_GT(s.rowConflicts.value(), 0.0) << t.name;

    std::ostringstream out;
    out << "{\n\"read_done\": [";
    for (std::size_t i = 0; i < done.size(); ++i)
        out << (i ? (i % 12 ? ", " : ",\n  ") : "\n  ") << done[i];
    out << "\n],\n\"channels\": [";
    for (std::size_t c = 0; c < logs.size(); ++c) {
        const ChannelLog &log = logs[c];
        out << (c ? ",\n  " : "\n  ") << "{\"reads\": " << log.reads
            << ", \"writes\": " << log.writes
            << ", \"read_refusals\": " << log.readRefusals
            << ", \"write_refusals\": " << log.writeRefusals
            << ", \"peak_read_queue\": " << log.peakReadQueue
            << ", \"peak_write_queue\": " << log.peakWriteQueue
            << ", \"drains\": " << log.drains << "}";
    }
    out << "\n],\n\"end_tick\": " << sim.now() << ",\n\"stats\": ";
    sim.statistics().dumpJson(out);
    out << "}";
    return out.str();
}

/**
 * DRAM scheduling order under a saturating load: FR-FCFS picks, write
 * drain hysteresis, forwarding, merging, refresh and the channel
 * sleep bounds all show up in the read completion ticks.
 */
TEST(Golden, DramOrderIsByteIdentical)
{
    std::ostringstream out;
    out << "{\"ddr4\": " << driveDramOrder(DramTiming::ddr4_3200(), 11)
        << ",\n\"hbm2\": " << driveDramOrder(DramTiming::hbm2(), 13)
        << "}\n";
    checkGolden("dram_order", out.str());
}

} // namespace
} // namespace nomad::runner
