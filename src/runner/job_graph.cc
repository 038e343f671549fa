#include "job_graph.hh"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "pool.hh"
#include "sim/logging.hh"

namespace nomad::runner
{

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Done: return "done";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timeout";
      case JobStatus::Skipped: return "skipped";
    }
    return "unknown";
}

std::size_t
JobGraph::add(std::string label, JobFn fn,
              std::vector<std::size_t> deps)
{
    const std::size_t index = jobs_.size();
    for (const std::size_t d : deps) {
        fatal_if(d >= index, "job '", label, "' depends on #", d,
                 " which is not an earlier job (have ", index, ")");
    }
    jobs_.push_back(JobEntry{std::move(label), std::move(fn),
                             std::move(deps)});
    return index;
}

namespace
{

/** One JobGraph::run() in flight: scheduling state + worker logic. */
class Executor
{
  public:
    Executor(const std::vector<JobGraph::JobEntry> &jobs,
             unsigned threads, JobGraph::Progress progress,
             std::size_t queue_capacity)
        : jobs_(jobs), progress_(std::move(progress)),
          pool_(threads, queue_capacity)
    {
        // NB: pool_ is declared last so its destructor (which joins
        // the workers) runs before any state the workers touch goes
        // away, even if run() unwinds early.
        const std::size_t n = jobs.size();
        reports_.resize(n);
        remainingDeps_.resize(n);
        dependents_.resize(n);
        depFailed_.assign(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            reports_[i].index = i;
            reports_[i].label = jobs[i].label;
            remainingDeps_[i] = jobs[i].deps.size();
            for (const std::size_t d : jobs[i].deps)
                dependents_[d].push_back(i);
        }
    }

    std::vector<JobReport>
    run()
    {
        const std::size_t n = jobs_.size();
        for (std::size_t i = 0; i < n; ++i)
            if (remainingDeps_[i] == 0)
                submit(i);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            allDone_.wait(lock, [&] { return terminal_ == n; });
        }
        pool_.drain();
        return std::move(reports_);
    }

  private:
    void
    submit(std::size_t i)
    {
        pool_.submit([this, i] { execute(i); });
    }

    /** Run job @p i's body, translating exceptions into a status. */
    void
    execute(std::size_t i)
    {
        const auto start = std::chrono::steady_clock::now();
        JobStatus status = JobStatus::Done;
        std::string error;
        std::string diag_json;
        try {
            jobs_[i].fn();
        } catch (const JobTimeout &e) {
            status = JobStatus::TimedOut;
            error = e.what();
            diag_json = e.diag().toJson();
        } catch (const harden::SimError &e) {
            // A diagnosed failure: keep the structured payload so the
            // sweep report can say exactly what died, where, and with
            // what model state.
            status = JobStatus::Failed;
            error = e.what();
            diag_json = e.diag().toJson();
        } catch (const std::exception &e) {
            status = JobStatus::Failed;
            error = e.what();
        } catch (...) {
            status = JobStatus::Failed;
            error = "unknown exception";
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        retire(i, status, std::move(error), std::move(diag_json),
               wall.count());
    }

    /**
     * Record job @p i's terminal state, transitively skip dependents
     * that can no longer run, release newly-ready ones, and report
     * progress. Runs on the worker that finished the job.
     */
    void
    retire(std::size_t i, JobStatus status, std::string error,
           std::string diag_json, double wall)
    {
        std::vector<std::size_t> ready;
        // (report, terminal ordinal) pairs for the progress callback.
        std::vector<std::pair<JobReport, std::size_t>> announce;
        // Taken before mutex_ is released, so announcements leave in
        // ordinal order even when two workers retire at once.
        std::unique_lock<std::mutex> announcing;
        bool finished;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            reports_[i].status = status;
            reports_[i].error = std::move(error);
            reports_[i].diagJson = std::move(diag_json);
            reports_[i].wallSeconds = wall;
            std::vector<std::size_t> work{i};
            while (!work.empty()) {
                const std::size_t j = work.back();
                work.pop_back();
                ++terminal_;
                announce.emplace_back(reports_[j], terminal_);
                const bool ok =
                    reports_[j].status == JobStatus::Done;
                for (const std::size_t dep : dependents_[j]) {
                    if (!ok && !depFailed_[dep]) {
                        depFailed_[dep] = true;
                        reports_[dep].error =
                            "dependency '" + reports_[j].label +
                            "' " + jobStatusName(reports_[j].status);
                    }
                    if (--remainingDeps_[dep] > 0)
                        continue;
                    if (depFailed_[dep]) {
                        reports_[dep].status = JobStatus::Skipped;
                        work.push_back(dep);
                    } else {
                        ready.push_back(dep);
                    }
                }
            }
            finished = terminal_ == jobs_.size();
            if (progress_)
                announcing = std::unique_lock<std::mutex>(progressMutex_);
        }
        if (progress_) {
            for (const auto &[report, ordinal] : announce)
                progress_(report, ordinal, jobs_.size());
            announcing.unlock();
        }
        for (const std::size_t r : ready)
            submit(r);
        if (finished)
            allDone_.notify_all();
    }

    const std::vector<JobGraph::JobEntry> &jobs_;
    JobGraph::Progress progress_;

    std::mutex mutex_;
    std::mutex progressMutex_;
    std::condition_variable allDone_;
    std::vector<JobReport> reports_;
    std::vector<std::size_t> remainingDeps_;
    std::vector<std::vector<std::size_t>> dependents_;
    std::vector<bool> depFailed_;
    std::size_t terminal_ = 0;

    ThreadPool pool_; ///< Last member: destroyed (joined) first.
};

} // namespace

std::vector<JobReport>
JobGraph::run(unsigned threads, Progress progress,
              std::size_t queue_capacity)
{
    if (jobs_.empty())
        return {};
    Executor exec(jobs_, threads, std::move(progress),
                  queue_capacity);
    return exec.run();
}

} // namespace nomad::runner
