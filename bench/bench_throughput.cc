/**
 * @file
 * Simulator-throughput benchmark: host MIPS (millions of simulated
 * instructions per host wall-clock second) per scheme per Table I
 * workload class.
 *
 * Runs the `throughput` suite (one class representative x all five
 * schemes, 20 jobs; see docs/RUNNER.md) on one worker so each job's
 * wall time is uncontended, and writes the measurement as a
 * BENCH_throughput.json entry (schema: docs/PERFORMANCE.md).
 *
 * A calibration spin loop (xorshift64*) is timed first so entries
 * recorded on different machines stay comparable: scripts/check_perf.py
 * compares `total.mips / calibration_mops` ratios, not raw MIPS.
 *
 * Extra flags beyond the common set (bench_common.hh):
 *
 *   --out=PATH     measurement file (default BENCH_throughput.json)
 *   --label=NAME   entry label recorded in the file (default "local")
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace nomad;

/**
 * Millions of xorshift64* iterations per second, best of three
 * ~0.1s spins. A pure integer-ALU + branch loop is a rough but
 * stable proxy for the simulator's own instruction mix.
 */
double
calibrateMops()
{
    constexpr std::uint64_t kIters = 60'000'000;
    double best = 0;
    std::uint64_t sink = 0x9e3779b97f4a7c15ull;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t x = 0x243f6a8885a308d3ull + rep;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            sink += x * 0x2545f4914f6cdd1dull;
        }
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::max(best, kIters / dt.count() / 1e6);
    }
    // Defeat dead-code elimination without polluting the report.
    if (sink == 0)
        std::fprintf(stderr, "calibration sink was zero\n");
    return best;
}

std::string
utcDate()
{
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
    return buf;
}

struct RunRecord
{
    std::string scheme;
    std::string workload;
    std::string klass;
    std::uint64_t instructions = 0;
    double wallSeconds = 0;
    double mips = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    const Config cfg = Config::fromArgs(argc, argv);
    std::string outPath = cfg.getString("out");
    if (outPath.empty())
        outPath = "BENCH_throughput.json";
    std::string label = cfg.getString("label");
    if (label.empty())
        label = "local";

    bench::printHeaderLine(
        "Simulator throughput: host MIPS per scheme per workload "
        "class");

    const double calib = calibrateMops();
    std::printf("calibration: %.0f M xorshift64* iters/s\n", calib);

    runner::Sweep sweep;
    runner::buildSuite("throughput", bench::suiteOptions(), sweep);
    const std::vector<runner::SweepRunResult> results =
        bench::runSweep(sweep);

    // Per-job simulated instructions (warm-up window included: it is
    // simulated work all the same). Mirrors runner::suiteConfig.
    const std::uint64_t instrPerCore = bench::instrPerCore();
    const std::uint32_t cores = bench::numCores();
    const std::uint64_t instrPerJob =
        static_cast<std::uint64_t>(cores) * instrPerCore * 2;

    // Walk results in the suite's documented order: class-major,
    // scheme-minor (docs/RUNNER.md). Results are keyed by job label,
    // not position, because --scheme drops jobs from the sweep.
    std::map<std::string, const runner::SweepRunResult *> byLabel;
    for (const runner::SweepRunResult &r : results)
        byLabel[r.report.label] = &r;
    std::vector<RunRecord> runs;
    std::map<std::string, std::pair<std::uint64_t, double>> perClass;
    std::map<std::string, std::pair<std::uint64_t, double>> perScheme;
    std::uint64_t totalInstr = 0;
    double totalWall = 0;
    for (const auto &[klass, workload] : runner::throughputReps()) {
        for (const SchemeKind k : runner::allSchemeKinds()) {
            const auto it = byLabel.find(
                std::string(schemeKindName(k)) + "/" + workload);
            if (it == byLabel.end() || !it->second->ok())
                continue;
            const runner::SweepRunResult &r = *it->second;
            RunRecord rec;
            rec.scheme = schemeKindName(k);
            rec.workload = workload;
            rec.klass = workloadClassName(klass);
            rec.instructions = instrPerJob;
            rec.wallSeconds = r.report.wallSeconds;
            rec.mips = rec.wallSeconds > 0
                           ? instrPerJob / rec.wallSeconds / 1e6
                           : 0;
            perClass[rec.klass].first += instrPerJob;
            perClass[rec.klass].second += rec.wallSeconds;
            perScheme[rec.scheme].first += instrPerJob;
            perScheme[rec.scheme].second += rec.wallSeconds;
            totalInstr += instrPerJob;
            totalWall += rec.wallSeconds;
            runs.push_back(std::move(rec));
        }
    }

    std::printf("\n%-10s", "class");
    for (const SchemeKind k : runner::allSchemeKinds())
        std::printf("%12s", schemeKindName(k));
    std::printf("\n");
    for (const auto &[klass, workload] : runner::throughputReps()) {
        std::printf("%-10s", workloadClassName(klass));
        for (const SchemeKind k : runner::allSchemeKinds()) {
            double mips = 0;
            for (const RunRecord &rec : runs) {
                if (rec.workload == workload &&
                    rec.scheme == schemeKindName(k))
                    mips = rec.mips;
            }
            std::printf("%12.2f", mips);
        }
        std::printf("  (%s)\n", workload.c_str());
    }
    const double totalMips =
        totalWall > 0 ? totalInstr / totalWall / 1e6 : 0;
    std::printf("\ntotal: %.3f MIPS over %.2fs wall "
                "(%.4f MIPS per calibration Mop)\n",
                totalMips, totalWall,
                calib > 0 ? totalMips / calib : 0);

    // One trajectory entry, schema nomad-bench-throughput-v1
    // (docs/PERFORMANCE.md). scripts/check_perf.py compares and
    // appends these.
    std::ofstream out(outPath);
    fatal_if(!out, "cannot write ", outPath);
    out << "{\n\"schema\": \"nomad-bench-throughput-v1\",\n"
        << "\"entries\": [\n{\n"
        << "  \"label\": \"" << label << "\",\n"
        << "  \"date\": \"" << utcDate() << "\",\n"
        << "  \"instr_per_core\": " << instrPerCore << ",\n"
        << "  \"cores\": " << cores << ",\n"
        << "  \"calibration_mops\": " << calib << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunRecord &r = runs[i];
        out << "    {\"scheme\": \"" << r.scheme
            << "\", \"workload\": \"" << r.workload
            << "\", \"workload_class\": \"" << r.klass
            << "\", \"instructions\": " << r.instructions
            << ", \"wall_seconds\": " << r.wallSeconds
            << ", \"mips\": " << r.mips << "}"
            << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"total\": {\"instructions\": " << totalInstr
        << ", \"wall_seconds\": " << totalWall
        << ", \"mips\": " << totalMips << ", \"norm_mips\": "
        << (calib > 0 ? totalMips / calib : 0) << "}\n}\n]}\n";
    out.close();
    std::printf("throughput entry: %s\n", outPath.c_str());

    bench::finalize();
    return 0;
}
