/**
 * @file
 * perfbench driver: runs one benchmark workload's jobs one at a time
 * on one thread and prints one JSON line per job.
 *
 * It reaches the simulator only through its public API: the System
 * constructor, runWarmup(), runMeasured(), collect() and
 * writeStatsJson(). All checks and metric derivations live in
 * perfbench/run.py, which builds and invokes this program.
 *
 * Usage:
 *   perfbench_driver --workload=NAME --seed=N --seconds=S
 *
 * Jobs cycle through the workload's input seeds until the time budget S
 * is spent, but run each input once and the first input a second time
 * at least, so every run has a repetition to compare.
 *
 * Output (stdout), one JSON object per line:
 *   {"setup": {"seconds": [...]}}            SetupBuilds timed builds
 *   {"job": k, "label": ..., "seed": ..., "spans": [...],
 *    "write_queue_slots": {"hbm": N, "ddr": N}, "stats": {...}, ...}
 *   {"end": {"peak_rss_kb": N, "jobs": J}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "system/system.hh"

namespace
{

using namespace nomad;
using Clock = std::chrono::steady_clock;

/**
 * One benchmark workload. Its jobs cycle through @c inputs input seeds
 * derived from the run's seed, so that the simulated metrics average
 * over several inputs.
 */
struct Workload
{
    const char *name;
    /** Warm-up and measured window, each, in instructions per core. */
    std::uint64_t instrPerCore;
    std::uint64_t inputs;
};

constexpr Workload Workloads[] = {
    {"excess-nomad", 150'000, 8},
    {"tight-nomad", 300'000, 8},
    {"farlink-tiering", 50'000, 4},
};

/** Timed System builds per run; setup_s is their median. */
constexpr std::uint64_t SetupBuilds = 101;

/** Input seeds of different run seeds never coincide. */
constexpr std::uint64_t MaxInputs = 16;
static_assert(std::all_of(std::begin(Workloads), std::end(Workloads),
                          [](const Workload &w) {
                              return w.inputs <= MaxInputs;
                          }));

/**
 * The Fig 17 "sustained" drifting-hot-set profile, copied from
 * runner::fig17SustainedProfile() so that the benchmark's input stays
 * fixed when the figure's suite is retuned.
 */
WorkloadProfile
sustainedTieringProfile()
{
    WorkloadProfile p;
    p.name = "sustained";
    p.memRatio = 0.35;
    p.storeRatio = 0.25;
    p.footprintPages = 8192;
    p.hotPages = 512;
    p.streamFraction = 0.35;
    p.hotZipf = 0.9;
    p.concurrentStreams = 2;
    p.blocksPerVisit = 32;
    p.sequentialBlocks = true;
    p.rereferenceProb = 0.5;
    p.hotShiftInstrs = 50'000;
    p.hotShiftPages = 128;
    return p;
}

SystemConfig
workloadConfig(const Workload &w, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.seed = seed;
    cfg.instructionsPerCore = w.instrPerCore;
    cfg.warmupInstructionsPerCore = w.instrPerCore;
    const std::string name = w.name;
    if (name == "excess-nomad") {
        cfg.scheme = SchemeKind::Nomad;
        cfg.workload = "cact";
    } else if (name == "tight-nomad") {
        cfg.scheme = SchemeKind::Nomad;
        cfg.workload = "libq";
    } else {
        cfg.scheme = SchemeKind::Tiering;
        cfg.customWorkload = sustainedTieringProfile();
        cfg.tiering.farLinkTicks = 6400;
    }
    return cfg;
}

/**
 * Posted writes a device can hold queued: a write counts as a request
 * when accepted but issues its CAS later, so at most this many fall on
 * one side of a window's CAS identity.
 */
unsigned long long
writeQueueSlots(const DramTiming &t)
{
    return static_cast<unsigned long long>(t.channels) * t.writeQueueDepth;
}

double
secondsSince(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage("bad integer for --" + key + ": '" + text + "'");
    return v;
}

struct Span
{
    const char *name;
    double start;
    double end;
};

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    std::string workloadName;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage("expected --key=value, got '" + arg + "'");
        const std::string key = arg.substr(2, eq - 2);
        const std::string val = arg.substr(eq + 1);
        if (key == "workload") {
            workloadName = val;
        } else if (key == "seed") {
            seed = parseCount(key, val);
            haveSeed = true;
        } else if (key == "seconds") {
            seconds = static_cast<double>(parseCount(key, val));
        } else {
            usage("unknown option --" + key);
        }
    }
    const Workload *workload = nullptr;
    for (const Workload &w : Workloads) {
        if (workloadName == w.name)
            workload = &w;
    }
    if (!workload)
        usage("unknown workload '" + workloadName + "'");
    if (!haveSeed)
        usage("--seed is required");
    if (seed > ~std::uint64_t{0} / MaxInputs - 1)
        usage("--seed too large");

    std::vector<SystemConfig> inputs;
    for (std::uint64_t i = 0; i < workload->inputs; ++i)
        inputs.push_back(workloadConfig(*workload, seed * MaxInputs + i));
    const SystemConfig &cfg = inputs.front();
    const std::uint64_t minJobs = inputs.size() + 1;
    const std::uint64_t instrPerJob =
        static_cast<std::uint64_t>(cfg.numCores) *
        (cfg.warmupInstructionsPerCore + cfg.instructionsPerCore);

    // Set-up time: median of several builds of the job's System. The
    // first build also registers the schemes.
    std::printf("{\"setup\": {\"seconds\": [");
    for (std::uint64_t i = 0; i < SetupBuilds; ++i) {
        const Clock::time_point t0 = Clock::now();
        double built = 0;
        {
            System system(cfg);
            built = std::chrono::duration<double>(Clock::now() - t0)
                        .count();
        }
        std::printf("%s%.9g", i ? ", " : "", built);
    }
    std::printf("]}}\n");
    std::fflush(stdout);

    // Jobs run until the time budget would be overrun by one more of
    // the last job's length, but at least minJobs of them, cycling
    // through the inputs: 0,1,...,n-1,0,1,...
    std::uint64_t jobs = 0;
    double lastJob = 0;
    while (jobs < minJobs || secondsSince(origin) + lastJob <= seconds) {
        const SystemConfig &input = inputs[jobs % inputs.size()];
        const std::string label = std::string(workload->name) + "/seed" +
                                  std::to_string(input.seed) + "/job" +
                                  std::to_string(jobs);
        std::vector<Span> spans;
        std::ostringstream stats;
        SystemResults results;
        std::string error;
        const double jobStart = secondsSince(origin);
        try {
            double t = jobStart;
            System system(input);
            spans.push_back({"system.construct", t, secondsSince(origin)});
            t = spans.back().end;
            system.runWarmup();
            spans.push_back({"system.warmup", t, secondsSince(origin)});
            t = spans.back().end;
            system.runMeasured();
            results = system.collect();
            spans.push_back({"system.measured", t, secondsSince(origin)});
            t = spans.back().end;
            system.writeStatsJson(stats);
            spans.push_back({"system.export", t, secondsSince(origin)});
        } catch (const std::exception &e) {
            error = e.what();
        }
        const double jobEnd =
            spans.empty() ? secondsSince(origin) : spans.back().end;
        lastJob = secondsSince(origin) - jobStart;

        std::string statsText = stats.str();
        for (char &c : statsText) {
            if (c == '\n')
                c = ' ';
        }
        std::printf("{\"job\": %llu, \"label\": \"%s\", "
                    "\"seed\": %llu, \"instructions\": %llu, "
                    "\"instr_per_core\": %llu, \"cores\": %u, ",
                    static_cast<unsigned long long>(jobs), label.c_str(),
                    static_cast<unsigned long long>(input.seed),
                    static_cast<unsigned long long>(instrPerJob),
                    static_cast<unsigned long long>(
                        cfg.instructionsPerCore),
                    cfg.numCores);
        std::printf("\"write_queue_slots\": {\"hbm\": %llu, "
                    "\"ddr\": %llu}, ",
                    writeQueueSlots(input.hbm), writeQueueSlots(input.ddr));
        std::printf("\"spans\": [{\"name\": \"job\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": null}",
                    jobStart, jobEnd);
        for (const Span &s : spans) {
            std::printf(", {\"name\": \"%s\", \"start\": %.9f, "
                        "\"end\": %.9f, \"parent\": \"job\"}",
                        s.name, s.start, s.end);
        }
        std::printf("], \"ipc\": %.17g, \"dc_read_latency\": %.17g, ",
                    results.ipc, results.dcReadLatency);
        if (error.empty()) {
            std::printf("\"error\": null, \"stats\": %s}\n",
                        statsText.c_str());
        } else {
            for (char &c : error) {
                if (c == '"' || c == '\\' ||
                    static_cast<unsigned char>(c) < 0x20)
                    c = ' ';
            }
            std::printf("\"error\": \"%s\", \"stats\": null}\n",
                        error.c_str());
        }
        std::fflush(stdout);
        ++jobs;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"end\": {\"peak_rss_kb\": %ld, \"jobs\": %llu}}\n",
                ru.ru_maxrss, static_cast<unsigned long long>(jobs));
    return 0;
}
