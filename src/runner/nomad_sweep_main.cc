/**
 * @file
 * nomad-sweep: the unified experiment driver. Reproduces any
 * registered bench suite (table1, fig7, fig9, fig12, fig13) as a
 * concurrent sweep on a worker pool, with the same observability
 * CLI as the bench binaries plus the runner knobs:
 *
 *   nomad-sweep --suite fig9 --jobs 8 --stats-json out.json
 *
 *   --suite=NAME        which suite to run (--list shows them)
 *   --scheme=A,B        restrict the suite to the listed schemes
 *                       (registry names, case-insensitive; unknown
 *                       names fail listing the registered set)
 *   --jobs=N            worker threads (default 1)
 *   --seed=S            base RNG seed (default 12345); each job runs
 *                       with deriveSeed(S, index), so results do not
 *                       depend on N
 *   --timeout=SEC       per-job wall-clock deadline (default none);
 *                       overruns are reported and skipped
 *   --stats-json=PATH   merged {"runs": [...]} in submission order
 *   --trace=PATH        shared Chrome trace; job i gets pid i+1
 *   --trace-dram        enable the high-volume DRAM category
 *   --sample-period=N   stat-sampler period (default 5000)
 *   --instr=N --cores=N scale knobs (env NOMAD_BENCH_* honoured)
 *   --quiet             suppress per-job progress on stderr
 *   --list              print the suite registry and exit
 *
 * Campaign resilience (docs/RUNNER.md, "Campaign resilience"):
 *
 *   --retries=K         re-run failed/timed-out jobs up to K extra
 *                       times (same derived seed) with exponential
 *                       backoff; attempt history lands in the
 *                       failures array
 *   --retry-backoff-ms=MS  first backoff delay (default 100; doubles
 *                       per attempt, capped at 60s)
 *   --campaign-dir=DIR  checkpoint/resume directory: job outcomes
 *                       persist as they retire, and re-running the
 *                       same sweep with the same DIR skips completed
 *                       jobs and produces byte-identical merged stats
 *
 * Hardening knobs (docs/HARDENING.md), applied to every job:
 *
 *   --fault-spec=SPEC   deterministic fault injection, e.g.
 *                       seed=7:drop-dram=0.01:stuck-copy=0.005
 *   --check-invariants  enable model invariant checks + drain audit
 *   --watchdog=TICKS    forward-progress watchdog threshold
 *   --copy-timeout=T    per-page-copy retry timeout in ticks
 *
 * Exit status: 0 when every job completed, 1 otherwise (the sweep
 * itself always runs to the end; failures never abort it).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "dramcache/scheme_registry.hh"
#include "harden/fault.hh"
#include "schemes/register_all.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "suites.hh"
#include "sweep.hh"

using namespace nomad;
using namespace nomad::runner;

namespace
{

std::uint64_t
envOrDefault(const char *env, std::uint64_t def)
{
    if (const char *s = std::getenv(env))
        return std::strtoull(s, nullptr, 0);
    return def;
}

/**
 * Accept both `--key=value` and `--key value` spellings: join a
 * value-taking flag with its successor before Config::fromArgs
 * (which only understands the `=` form) sees the argv.
 */
std::vector<std::string>
joinFlagValues(int argc, char **argv)
{
    static const char *valueFlags[] = {
        "--suite", "--jobs",  "--seed",          "--timeout",
        "--stats-json", "--trace", "--sample-period", "--instr",
        "--cores",      "--config", "--fault-spec",  "--watchdog",
        "--copy-timeout", "--retries", "--retry-backoff-ms",
        "--campaign-dir", "--scheme"};
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        for (const char *flag : valueFlags) {
            if (arg == flag && i + 1 < argc) {
                arg += std::string("=") + argv[++i];
                break;
            }
        }
        out.push_back(std::move(arg));
    }
    return out;
}

void
listSuites()
{
    std::printf("available suites (--suite=NAME):\n");
    for (const SuiteInfo &s : allSuites())
        std::printf("  %-8s %s [serial: %s]\n", s.name, s.description,
                    s.benchBinary);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> joined =
        joinFlagValues(argc, argv);
    std::vector<char *> joinedArgv{argv[0]};
    for (const std::string &arg : joined)
        joinedArgv.push_back(const_cast<char *>(arg.c_str()));
    const Config cfg =
        Config::fromArgs(static_cast<int>(joinedArgv.size()),
                         joinedArgv.data());
    for (const auto &[key, value] : cfg.entries()) {
        (void)value;
        fatal_if(key != "suite" && key != "jobs" && key != "seed" &&
                     key != "timeout" && key != "stats-json" &&
                     key != "trace" && key != "trace-dram" &&
                     key != "sample-period" && key != "instr" &&
                     key != "cores" && key != "quiet" &&
                     key != "list" && key != "config" &&
                     key != "fault-spec" && key != "check-invariants" &&
                     key != "watchdog" && key != "copy-timeout" &&
                     key != "retries" && key != "retry-backoff-ms" &&
                     key != "campaign-dir" && key != "scheme",
                 "unknown option --", key, " (see docs/RUNNER.md)");
    }
    if (cfg.getBool("list", false)) {
        listSuites();
        return 0;
    }

    const std::string suiteName = cfg.getString("suite");
    if (suiteName.empty()) {
        std::fprintf(stderr,
                     "usage: nomad-sweep --suite=NAME [--jobs=N] "
                     "[--stats-json=PATH] ... (--list for suites)\n");
        return 2;
    }

    SuiteOptions suiteOpts;
    suiteOpts.instrPerCore =
        cfg.getUint("instr", envOrDefault("NOMAD_BENCH_INSTR", 0));
    suiteOpts.cores = static_cast<std::uint32_t>(
        cfg.getUint("cores", envOrDefault("NOMAD_BENCH_CORES", 0)));
    // --scheme=a,b filters the suite's job set to the listed schemes;
    // names resolve through the registry so an unknown one fails
    // with the registered list.
    if (const std::string filter = cfg.getString("scheme");
        !filter.empty()) {
        registerAllSchemes();
        const SchemeRegistry &reg = SchemeRegistry::instance();
        std::size_t pos = 0;
        while (pos <= filter.size()) {
            const std::size_t comma = filter.find(',', pos);
            const std::string name = filter.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            try {
                if (!name.empty())
                    suiteOpts.schemes.push_back(
                        reg.parseNameOrThrow(name));
            } catch (const harden::SimError &e) {
                fatal(e.what());
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    Sweep sweep;
    if (!buildSuite(suiteName, suiteOpts, sweep)) {
        std::fprintf(stderr, "unknown suite '%s'\n",
                     suiteName.c_str());
        listSuites();
        return 2;
    }

    const std::string statsPath = cfg.getString("stats-json");
    std::unique_ptr<trace::TraceSink> sink;
    if (const std::string path = cfg.getString("trace");
        !path.empty()) {
        sink = std::make_unique<trace::TraceSink>(path);
        if (cfg.getBool("trace-dram", false))
            sink->setEnabled(trace::Cat::Dram, true);
    }

    SweepOptions opts;
    opts.jobs =
        static_cast<unsigned>(cfg.getUint("jobs", 1));
    opts.baseSeed = cfg.getUint("seed", 12345);
    opts.timeoutSeconds = cfg.getDouble("timeout", 0);
    opts.wantStatsJson = !statsPath.empty();
    opts.traceSink = sink.get();
    if (sink || !statsPath.empty())
        opts.samplePeriod = cfg.getUint("sample-period", 5000);
    if (!cfg.getBool("quiet", false))
        opts.progress = Sweep::stderrProgress();
    opts.harden.faultSpec = cfg.getString("fault-spec");
    opts.harden.checkInvariants =
        cfg.getBool("check-invariants", false);
    opts.harden.watchdogTicks = cfg.getUint("watchdog", 0);
    opts.harden.copyTimeoutTicks = cfg.getUint("copy-timeout", 0);
    opts.maxRetries =
        static_cast<unsigned>(cfg.getUint("retries", 0));
    opts.retryBackoffMs = static_cast<unsigned>(
        cfg.getUint("retry-backoff-ms", 100));
    opts.campaignDir = cfg.getString("campaign-dir");
    opts.campaignLabel = suiteName;
    // Reject a malformed spec up front with the parser's clause-level
    // message rather than N identical per-job failures.
    try {
        harden::FaultSpec::parse(opts.harden.faultSpec);
    } catch (const harden::SimError &e) {
        fatal(e.what());
    }

    std::printf("nomad-sweep: suite %s, %zu jobs on %u worker%s\n",
                suiteName.c_str(), sweep.size(), opts.jobs,
                opts.jobs == 1 ? "" : "s");
    const std::vector<SweepRunResult> results = sweep.run(opts);

    // Summary table: one line per job, submission order.
    std::printf("\n%-28s %-8s %8s %8s %10s\n", "label", "status",
                "IPC", "DCrd-cyc", "wall(s)");
    std::size_t okCount = 0;
    for (const SweepRunResult &r : results) {
        if (r.ok()) {
            ++okCount;
            std::printf("%-28s %-8s %8.3f %8.1f %10.2f\n",
                        r.report.label.c_str(),
                        jobStatusName(r.report.status), r.results.ipc,
                        r.results.dcReadLatency,
                        r.report.wallSeconds);
        } else {
            std::printf("%-28s %-8s %26s %s\n",
                        r.report.label.c_str(),
                        jobStatusName(r.report.status), "",
                        r.report.error.c_str());
        }
    }
    std::printf("\n%zu/%zu jobs completed\n", okCount,
                results.size());

    if (sink) {
        sink->close();
        sink.reset();
    }
    if (!statsPath.empty()) {
        std::ofstream out(statsPath);
        fatal_if(!out, "cannot write ", statsPath);
        Sweep::writeMergedStats(out, results);
        std::printf("stats JSON: %s\n", statsPath.c_str());
    }
    return okCount == results.size() ? 0 : 1;
}
