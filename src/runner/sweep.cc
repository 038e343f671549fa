#include "sweep.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign.hh"
#include "mem/request.hh"
#include "sim/json.hh"

namespace nomad::runner
{

std::size_t
Sweep::add(SimJob job, std::vector<std::size_t> deps)
{
    if (job.config.obs.runLabel.empty())
        job.config.obs.runLabel = job.label;
    jobs_.push_back(Entry{std::move(job), std::move(deps)});
    return jobs_.size() - 1;
}

namespace
{

/**
 * Canonical identity of a finalized sweep, hashed into the campaign
 * journal header. Covers everything that changes simulated output:
 * job order, labels, derived seeds, scale, scheme/workload selection
 * and the effective hardening flags. Advisory by design — it catches
 * flag-level mismatches (different suite, seed, scale, fault spec),
 * not arbitrary code changes between sessions.
 */
std::uint64_t
sweepIdentityHash(const std::vector<SimJob *> &jobs,
                  const SweepOptions &opts)
{
    std::ostringstream ss;
    ss << "nomad-sweep-identity-v1|" << opts.baseSeed << "|"
       << jobs.size();
    for (const SimJob *job : jobs) {
        const SystemConfig &cfg = job->config;
        ss << "\n" << job->label << "|" << cfg.seed << "|"
           << static_cast<int>(cfg.scheme) << "|" << cfg.workload
           << "|"
           << (cfg.customWorkload ? cfg.customWorkload->name : "")
           << "|" << cfg.numCores << "|" << cfg.instructionsPerCore
           << "|" << cfg.warmupInstructionsPerCore << "|"
           << cfg.dcFrames << "|" << cfg.obs.samplePeriod << "|"
           << cfg.harden.faultSpec << "|"
           << cfg.harden.checkInvariants << "|"
           << cfg.harden.watchdogTicks << "|"
           << cfg.harden.copyTimeoutTicks;
    }
    return fnv1a64(ss.str());
}

std::string
campaignManifestJson(const std::vector<SimJob *> &jobs,
                     const SweepOptions &opts, std::uint64_t hash)
{
    std::ostringstream os;
    char hash_text[32];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(hash));
    os << "{\n\"schema\": \"nomad-campaign-v1\",\n\"label\": ";
    json::writeString(os, opts.campaignLabel);
    os << ",\n\"hash\": \"" << hash_text << "\",\n\"base_seed\": "
       << opts.baseSeed << ",\n\"njobs\": " << jobs.size()
       << ",\n\"jobs\": [\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            os << ",\n";
        os << "{\"index\": " << i << ", \"label\": ";
        json::writeString(os, jobs[i]->label);
        os << ", \"seed\": " << jobs[i]->config.seed << "}";
    }
    os << "\n]\n}\n";
    return os.str();
}

/** Outcome of one execution attempt, before it becomes history. */
struct AttemptOutcome
{
    JobAttempt attempt;
    std::exception_ptr failure; ///< Null on success.
};

/**
 * Run one attempt of @p job, auditing the request-pool balance
 * around the System's lifetime: by the time runSimJob returns or
 * unwinds the System is fully torn down, so any pooled request still
 * live is a teardown leak that would compound across in-process
 * retries. With invariant checking on, a leak escalates to a typed
 * failure; otherwise it is appended to the attempt's error text.
 */
AttemptOutcome
runAttempt(const SimJob &job, const SimJobOptions &jobOpts,
           bool check_invariants, SweepRunResult &result)
{
    AttemptOutcome out;
    const std::uint64_t live_before = liveRequestCount();
    const auto start = std::chrono::steady_clock::now();
    try {
        SimJobOutput output = runSimJob(job, jobOpts);
        result.results = output.results;
        result.statsJson = std::move(output.statsJson);
        out.attempt.status = JobStatus::Done;
    } catch (const JobTimeout &e) {
        out.attempt.status = JobStatus::TimedOut;
        out.attempt.error = e.what();
        out.attempt.diagJson = e.diag().toJson();
        out.failure = std::current_exception();
    } catch (const harden::SimError &e) {
        out.attempt.status = JobStatus::Failed;
        out.attempt.error = e.what();
        out.attempt.diagJson = e.diag().toJson();
        out.failure = std::current_exception();
    } catch (const std::exception &e) {
        out.attempt.status = JobStatus::Failed;
        out.attempt.error = e.what();
        out.failure = std::current_exception();
    } catch (...) {
        out.attempt.status = JobStatus::Failed;
        out.attempt.error = "unknown exception";
        out.failure = std::current_exception();
    }
    out.attempt.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const std::uint64_t live_after = liveRequestCount();
    if (live_after != live_before) {
        const std::string note =
            "job '" + job.label + "' leaked " +
            std::to_string(live_after - live_before) +
            " pooled request(s) across System teardown";
        if (check_invariants) {
            harden::Diagnostic d;
            d.kind = harden::ErrorKind::InvariantViolation;
            d.component = "runner";
            d.message = note;
            out.attempt.status = JobStatus::Failed;
            out.attempt.error = note;
            out.attempt.diagJson = d.toJson();
            out.failure = std::make_exception_ptr(
                harden::SimError(std::move(d)));
        } else if (!out.attempt.error.empty()) {
            out.attempt.error += " [" + note + "]";
        } else {
            out.attempt.error = "[" + note + "]";
        }
    }
    return out;
}

} // namespace

std::vector<SweepRunResult>
Sweep::run(const SweepOptions &opts)
{
    const std::size_t n = jobs_.size();
    std::vector<SweepRunResult> results(n);

    SimJobOptions jobOpts;
    // A campaign always captures stats so its shards carry the run
    // record whatever the caller does with it.
    jobOpts.wantStatsJson =
        opts.wantStatsJson || !opts.campaignDir.empty();
    jobOpts.timeoutSeconds = opts.timeoutSeconds;

    // Finalise every job's config deterministically up front — seed,
    // trace pid, sampler — so nothing depends on execution order.
    std::vector<SimJob *> finalized;
    finalized.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Entry &entry = jobs_[i];
        SystemConfig &cfg = entry.job.config;
        cfg.seed = deriveSeed(opts.baseSeed, i);
        if (opts.traceSink) {
            cfg.obs.traceSink = opts.traceSink;
            cfg.obs.tracePid =
                opts.firstTracePid + static_cast<std::uint32_t>(i);
        }
        if (opts.samplePeriod > 0)
            cfg.obs.samplePeriod = opts.samplePeriod;
        if (opts.harden.checkInvariants)
            cfg.harden.checkInvariants = true;
        if (!opts.harden.faultSpec.empty())
            cfg.harden.faultSpec = opts.harden.faultSpec;
        if (opts.harden.watchdogTicks > 0)
            cfg.harden.watchdogTicks = opts.harden.watchdogTicks;
        if (opts.harden.copyTimeoutTicks > 0)
            cfg.harden.copyTimeoutTicks = opts.harden.copyTimeoutTicks;
        finalized.push_back(&entry.job);
    }

    // Campaign resume: load completed jobs' shards instead of
    // re-running them; anything else (failed, timed out, skipped,
    // or torn mid-write) runs again this session.
    std::unique_ptr<Campaign> campaign;
    std::vector<char> cached(n, 0);
    if (!opts.campaignDir.empty()) {
        const std::uint64_t hash = sweepIdentityHash(finalized, opts);
        campaign = std::make_unique<Campaign>(opts.campaignDir);
        campaign->open(hash, n,
                       campaignManifestJson(finalized, opts, hash));
        for (std::size_t i = 0; i < n; ++i) {
            if (!campaign->completed(i) ||
                !campaign->loadStats(i, results[i].statsJson))
                continue;
            const CampaignRecord *rec = campaign->record(i);
            results[i].fromCache = true;
            results[i].report.index = i;
            results[i].report.label = finalized[i]->label;
            results[i].report.status = JobStatus::Done;
            results[i].report.wallSeconds = rec->wallSeconds;
            results[i].results.ipc = rec->ipc;
            results[i].results.dcReadLatency = rec->dcReadLatency;
            cached[i] = 1;
        }
    }

    // Attempt history lands here (one slot per job, written by the
    // single worker that runs the job) and is merged into the
    // reports after the graph drains.
    std::vector<std::vector<JobAttempt>> attempts(n);

    JobGraph graph;
    for (std::size_t i = 0; i < n; ++i) {
        Entry &entry = jobs_[i];
        if (cached[i]) {
            // Keep the node so dependents still see a Done parent;
            // the body is a no-op.
            graph.add(entry.job.label, [] {}, entry.deps);
            continue;
        }
        graph.add(
            entry.job.label,
            [&entry, &results, &attempts, i, &jobOpts, &opts,
             campaignPtr = campaign.get()] {
                SweepRunResult &res = results[i];
                unsigned backoff_ms = opts.retryBackoffMs;
                for (unsigned attempt = 0;; ++attempt) {
                    AttemptOutcome out = runAttempt(
                        entry.job, jobOpts,
                        entry.job.config.harden.checkInvariants, res);
                    attempts[i].push_back(out.attempt);
                    if (!out.failure) {
                        if (campaignPtr) {
                            // Checkpoint successes immediately: a
                            // crash after this point loses nothing.
                            JobReport report;
                            report.index = i;
                            report.label = entry.job.label;
                            report.status = JobStatus::Done;
                            report.wallSeconds =
                                out.attempt.wallSeconds;
                            report.attempts = attempts[i];
                            campaignPtr->record(
                                i, report, res.results.ipc,
                                res.results.dcReadLatency,
                                res.statsJson, "");
                        }
                        return;
                    }
                    if (attempt >= opts.maxRetries)
                        std::rethrow_exception(out.failure);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoff_ms));
                    backoff_ms =
                        backoff_ms >= 30'000 ? 60'000 : backoff_ms * 2;
                }
            },
            entry.deps);
    }

    std::vector<JobReport> reports =
        graph.run(opts.jobs, opts.progress, opts.queueCapacity);
    for (std::size_t i = 0; i < n; ++i) {
        if (cached[i])
            continue;
        results[i].report = std::move(reports[i]);
        results[i].report.attempts = std::move(attempts[i]);
    }

    // Journal this session's non-Done terminals (best effort — they
    // rerun on resume either way) with their failure fragment so the
    // campaign directory is self-describing.
    if (campaign) {
        for (std::size_t i = 0; i < n; ++i) {
            if (cached[i] || results[i].ok())
                continue;
            std::ostringstream frag;
            writeFailureEntry(frag, results[i].report);
            campaign->record(i, results[i].report,
                             results[i].results.ipc,
                             results[i].results.dcReadLatency, "",
                             frag.str());
        }
    }
    return results;
}

void
Sweep::writeFailureEntry(std::ostream &os, const JobReport &report)
{
    os << "{\"label\": ";
    json::writeString(os, report.label);
    os << ", \"status\": ";
    json::writeString(os, jobStatusName(report.status));
    os << ", \"error\": ";
    json::writeString(os, report.error);
    // Attempt history (oldest first) when the retry layer ran the
    // job; each entry keeps its own structured diagnostic, so every
    // timed-out attempt's final model snapshot survives later
    // retries (docs/HARDENING.md).
    if (!report.attempts.empty()) {
        os << ", \"attempts\": [";
        bool first = true;
        for (const JobAttempt &a : report.attempts) {
            if (!first)
                os << ", ";
            first = false;
            os << "{\"status\": ";
            json::writeString(os, jobStatusName(a.status));
            os << ", \"error\": ";
            json::writeString(os, a.error);
            os << ", \"diagnostic\": ";
            if (a.diagJson.empty())
                os << "null";
            else
                os << a.diagJson;
            os << "}";
        }
        os << "]";
    }
    os << ", \"diagnostic\": ";
    if (report.diagJson.empty())
        os << "null";
    else
        os << report.diagJson;
    os << "}";
}

void
Sweep::writeMergedStats(std::ostream &os,
                        const std::vector<SweepRunResult> &results)
{
    os << "{\n\"runs\": [\n";
    bool first = true;
    for (const SweepRunResult &r : results) {
        if (!r.ok() || r.statsJson.empty())
            continue;
        if (!first)
            os << ",\n";
        first = false;
        os << r.statsJson;
    }
    os << "]";
    // Failed/timed-out/skipped jobs degrade the document instead of
    // abandoning it: partial runs stay usable, a mode marker says so,
    // and a "failures" array carries the structured diagnostics.
    // Emitted only when something failed so a clean sweep's output is
    // byte-identical to the historic schema.
    bool any_failed = false;
    for (const SweepRunResult &r : results)
        any_failed = any_failed || !r.ok();
    if (any_failed) {
        os << ",\n\"mode\": \"degraded\",\n\"failures\": [\n";
        bool first_fail = true;
        for (const SweepRunResult &r : results) {
            if (r.ok())
                continue;
            if (!first_fail)
                os << ",\n";
            first_fail = false;
            writeFailureEntry(os, r.report);
        }
        os << "\n]";
    }
    os << "}\n";
}

JobGraph::Progress
Sweep::stderrProgress()
{
    return [](const JobReport &report, std::size_t done,
              std::size_t total) {
        if (report.status == JobStatus::Done) {
            std::fprintf(stderr, "[sweep] %zu/%zu done %s (%.1fs%s)\n",
                         done, total, report.label.c_str(),
                         report.wallSeconds,
                         report.attempts.size() > 1 ? ", retried"
                                                    : "");
        } else {
            std::fprintf(stderr, "[sweep] %zu/%zu %s %s%s%s\n", done,
                         total, jobStatusName(report.status),
                         report.label.c_str(),
                         report.error.empty() ? "" : ": ",
                         report.error.c_str());
        }
    };
}

} // namespace nomad::runner
