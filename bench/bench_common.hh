/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper. The
 * harnesses print paper reference values next to measured ones so the
 * reproduction shape can be judged directly from the output. Scale is
 * controlled by NOMAD_BENCH_INSTR (instructions per core per run) and
 * NOMAD_BENCH_CORES environment variables, or the --instr / --cores
 * flags.
 *
 * Every bench binary also understands the common observability CLI
 * (docs/OBSERVABILITY.md):
 *
 *   --stats-json=PATH    write {"runs": [...]} stats JSON on exit
 *   --trace=PATH         write a Chrome trace_event / Perfetto trace
 *   --trace-dram         include per-CAS DRAM bus events (large!)
 *   --sample-period=N    stat-sampler period in ticks (default 5000)
 *
 * and the runner CLI (docs/RUNNER.md), honoured by the harnesses
 * ported to the sweep engine (fig9, fig12, fig13):
 *
 *   --jobs=N             worker threads for the run sweep (default 1)
 *   --seed=S             base RNG seed (default 12345)
 *   --timeout=SEC        per-run wall-clock deadline (default none)
 *
 * and the hardening CLI (docs/HARDENING.md), applied to every run:
 *
 *   --fault-spec=SPEC    deterministic fault injection
 *   --check-invariants   model invariant checks + drain audit
 *   --watchdog=TICKS     forward-progress watchdog threshold
 *   --copy-timeout=T     per-page-copy retry timeout in ticks
 */

#ifndef NOMAD_BENCH_COMMON_HH
#define NOMAD_BENCH_COMMON_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "dramcache/scheme_registry.hh"
#include "harden/fault.hh"
#include "runner/suites.hh"
#include "schemes/register_all.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "system/system.hh"

namespace nomad::bench
{

/**
 * Process-wide observability state shared by every run. Concurrent
 * sweeps touch it from worker threads: pid assignment is atomic and
 * the run-record list is guarded by its mutex (use addRunJson()).
 */
struct Observability
{
    std::string statsPath;             ///< Empty: no stats JSON.
    std::unique_ptr<trace::TraceSink> sink;
    Tick samplePeriod = 5000;
    std::atomic<std::uint32_t> nextPid{1}; ///< trace pid per run.
    std::mutex runJsonMutex;
    std::vector<std::string> runJson;  ///< One stats object per run.
    std::uint64_t instrOverride = 0;   ///< --instr (0: env/default).
    std::uint32_t coresOverride = 0;   ///< --cores (0: env/default).
    std::uint64_t baseSeed = 12345;    ///< --seed.
    unsigned jobs = 1;                 ///< --jobs (ported benches).
    double timeoutSeconds = 0;         ///< --timeout (0: none).
    HardenConfig harden;               ///< --fault-spec et al.
    /** --scheme filter, resolved to kinds; empty: bench default. */
    std::vector<SchemeKind> schemeFilter;
};

inline Observability &
obs()
{
    static Observability o;
    return o;
}

/**
 * Parse the common CLI; call first thing in main(). Unrecognised
 * --key=value flags are fatal; positional arguments are rejected.
 */
inline void
init(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    for (const auto &[key, value] : cfg.entries()) {
        (void)value;
        fatal_if(key != "stats-json" && key != "trace" &&
                     key != "trace-dram" && key != "sample-period" &&
                     key != "instr" && key != "cores" &&
                     key != "jobs" && key != "seed" &&
                     key != "timeout" && key != "config" &&
                     key != "fault-spec" &&
                     key != "check-invariants" &&
                     key != "watchdog" && key != "copy-timeout" &&
                     key != "out" && key != "label" &&
                     key != "scheme",
                 "unknown option --", key,
                 " (see docs/OBSERVABILITY.md)");
    }
    Observability &o = obs();
    o.statsPath = cfg.getString("stats-json");
    o.samplePeriod = cfg.getUint("sample-period", 5000);
    o.instrOverride = cfg.getUint("instr", 0);
    o.coresOverride =
        static_cast<std::uint32_t>(cfg.getUint("cores", 0));
    o.baseSeed = cfg.getUint("seed", 12345);
    o.jobs = static_cast<unsigned>(cfg.getUint("jobs", 1));
    o.timeoutSeconds = cfg.getDouble("timeout", 0);
    o.harden.faultSpec = cfg.getString("fault-spec");
    o.harden.checkInvariants = cfg.getBool("check-invariants", false);
    o.harden.watchdogTicks = cfg.getUint("watchdog", 0);
    o.harden.copyTimeoutTicks = cfg.getUint("copy-timeout", 0);
    // Fail fast on a malformed spec, before any run starts.
    try {
        harden::FaultSpec::parse(o.harden.faultSpec);
    } catch (const harden::SimError &e) {
        fatal(e.what());
    }
    if (const std::string path = cfg.getString("trace");
        !path.empty()) {
        o.sink = std::make_unique<trace::TraceSink>(path);
        if (cfg.getBool("trace-dram", false))
            o.sink->setEnabled(trace::Cat::Dram, true);
    }
    // --scheme=a,b: resolve comma-separated registry names; an
    // unknown name is fatal with the registered list in the message.
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
                    o.schemeFilter.push_back(
                        reg.parseNameOrThrow(name));
            } catch (const harden::SimError &e) {
                fatal(e.what());
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
}

/**
 * The schemes this bench invocation should run: the --scheme filter
 * when given, @p def otherwise. Pass the bench's full scheme set as
 * the default.
 */
inline std::vector<SchemeKind>
schemesToRun(const std::vector<SchemeKind> &def)
{
    return obs().schemeFilter.empty() ? def : obs().schemeFilter;
}

/** Append one run record under the lock (any thread). */
inline void
addRunJson(std::string record)
{
    Observability &o = obs();
    const std::lock_guard<std::mutex> lock(o.runJsonMutex);
    o.runJson.push_back(std::move(record));
}

/**
 * Flush the stats JSON and close the trace; call once before main()
 * returns. Safe to call when no flag was given.
 */
inline void
finalize()
{
    Observability &o = obs();
    if (o.sink) {
        o.sink->close();
        o.sink.reset();
    }
    if (o.statsPath.empty())
        return;
    std::ofstream out(o.statsPath);
    fatal_if(!out, "cannot write ", o.statsPath);
    out << "{\n\"runs\": [\n";
    for (std::size_t i = 0; i < o.runJson.size(); ++i)
        out << o.runJson[i] << (i + 1 < o.runJson.size() ? ",\n" : "");
    out << "]}\n";
    o.statsPath.clear();
    o.runJson.clear();
}

/** Instructions per core per run (--instr, env NOMAD_BENCH_INSTR). */
inline std::uint64_t
instrPerCore(std::uint64_t def = 600'000)
{
    if (obs().instrOverride)
        return obs().instrOverride;
    if (const char *s = std::getenv("NOMAD_BENCH_INSTR"))
        return std::strtoull(s, nullptr, 0);
    return def;
}

/** Cores per system (--cores, env NOMAD_BENCH_CORES). */
inline std::uint32_t
numCores(std::uint32_t def = 4)
{
    if (obs().coresOverride)
        return obs().coresOverride;
    if (const char *s = std::getenv("NOMAD_BENCH_CORES"))
        return static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 0));
    return def;
}

/** Build the default config for one (scheme, workload) run. */
inline SystemConfig
makeConfig(SchemeKind scheme, const std::string &workload)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.workload = workload;
    cfg.numCores = numCores();
    cfg.instructionsPerCore = instrPerCore();
    cfg.warmupInstructionsPerCore = cfg.instructionsPerCore;
    cfg.seed = obs().baseSeed;
    return cfg;
}

/** The effective scale knobs as runner SuiteOptions. */
inline runner::SuiteOptions
suiteOptions()
{
    runner::SuiteOptions o;
    o.instrPerCore = instrPerCore();
    o.cores = numCores();
    o.schemes = obs().schemeFilter;
    return o;
}

/**
 * Run one experiment from a caller-built config, attaching the
 * process-wide observability (trace pid, sampler, stats record) under
 * @p label. Every bench run should go through here so --stats-json
 * and --trace cover it.
 */
inline SystemResults
runConfigured(SystemConfig cfg, const std::string &label,
              const std::function<void(System &)> &post = {})
{
    Observability &o = obs();
    cfg.obs.runLabel = label;
    if (o.harden.checkInvariants)
        cfg.harden.checkInvariants = true;
    if (!o.harden.faultSpec.empty())
        cfg.harden.faultSpec = o.harden.faultSpec;
    if (o.harden.watchdogTicks > 0)
        cfg.harden.watchdogTicks = o.harden.watchdogTicks;
    if (o.harden.copyTimeoutTicks > 0)
        cfg.harden.copyTimeoutTicks = o.harden.copyTimeoutTicks;
    if (o.sink) {
        cfg.obs.traceSink = o.sink.get();
        cfg.obs.tracePid = o.nextPid.fetch_add(1);
    }
    if (o.sink || !o.statsPath.empty())
        cfg.obs.samplePeriod = o.samplePeriod;
    System system(cfg);
    if (post)
        post(system);
    const SystemResults r = system.run();
    if (!o.statsPath.empty()) {
        std::ostringstream ss;
        system.writeStatsJson(ss);
        addRunJson(ss.str());
    }
    return r;
}

/**
 * Run a pre-built sweep through the runner on --jobs workers
 * (docs/RUNNER.md): per-job seeds derived from (--seed, index),
 * failures/timeouts isolated and reported on stderr, results and
 * stats records in submission order. The ported bench binaries build
 * their job set with the suite builders so `nomad-sweep --suite X`
 * reproduces the exact same runs.
 */
inline std::vector<runner::SweepRunResult>
runSweep(runner::Sweep &sweep)
{
    Observability &o = obs();
    runner::SweepOptions opts;
    opts.jobs = o.jobs;
    opts.baseSeed = o.baseSeed;
    opts.timeoutSeconds = o.timeoutSeconds;
    opts.harden = o.harden;
    opts.wantStatsJson = !o.statsPath.empty();
    opts.traceSink = o.sink.get();
    if (opts.traceSink) {
        opts.firstTracePid = o.nextPid.fetch_add(
            static_cast<std::uint32_t>(sweep.size()));
    }
    if (o.sink || !o.statsPath.empty())
        opts.samplePeriod = o.samplePeriod;
    opts.progress = runner::Sweep::stderrProgress();

    std::vector<runner::SweepRunResult> results = sweep.run(opts);
    for (const runner::SweepRunResult &r : results) {
        if (r.ok() && !r.statsJson.empty())
            addRunJson(r.statsJson);
    }
    return results;
}

/** Run one (scheme, workload) experiment with the default config. */
inline SystemResults
runOne(SchemeKind scheme, const std::string &workload)
{
    return runConfigured(makeConfig(scheme, workload),
                         std::string(schemeKindName(scheme)) + "/" +
                             workload);
}

inline void
printHeaderLine(const char *title)
{
    std::printf("\n================================================="
                "=============================\n%s\n"
                "=================================================="
                "============================\n",
                title);
}

} // namespace nomad::bench

#endif // NOMAD_BENCH_COMMON_HH
