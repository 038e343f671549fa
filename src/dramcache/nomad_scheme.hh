/**
 * @file
 * NOMAD: the non-blocking OS-managed DRAM cache (Section III).
 *
 * Front-end: the shared OsFrontEnd with the global
 * cache_frame_management_mutex and non-blocking resume (the thread
 * restarts as soon as the tag is updated and the fill command is
 * accepted). Back-end: one or more NomadBackEnd instances; with more
 * than one, commands and data-hit verification are distributed across
 * back-ends by low CFN bits (Section III-F / Fig 8b).
 */

#ifndef NOMAD_DRAMCACHE_NOMAD_SCHEME_HH
#define NOMAD_DRAMCACHE_NOMAD_SCHEME_HH

#include <deque>
#include <memory>
#include <vector>

#include "dramcache/nomad_backend.hh"
#include "dramcache/os_managed_scheme.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** NOMAD construction parameters. */
struct NomadParams
{
    OsFrontEndParams frontEnd;
    NomadBackEndParams backEnd; ///< Per-back-end instance values.
    /** 1 = centralized (Fig 8a); >1 = distributed by CFN (Fig 8b). */
    std::uint32_t numBackEnds = 1;
    /** Extra cycles for the PCSHR CAM compare (paper: 0.21, i.e., 0). */
    Tick verifyLatency = 0;
    /**
     * DC controller request-queue depth: accesses whose PCSHR
     * sub-entries are momentarily full wait here instead of bouncing
     * back into (and head-of-line blocking) the LLC's request path.
     */
    std::uint32_t controllerQueueDepth = 64;
};

/** The paper's scheme. */
class NomadScheme : public OsManagedScheme, public Clocked
{
  public:
    NomadScheme(Simulation &sim, const std::string &name,
                const NomadParams &params, DramDevice &off_package,
                DramDevice &on_package, PageTable &page_table);

    SchemeKind kind() const override { return SchemeKind::Nomad; }

    bool tryAccess(const MemRequestPtr &req,
                   PortWaiter *waiter) override;

    /** Retry queued DC-controller accesses once woken. */
    void tick() final;

    bool
    idle() const final
    {
        return pendingQ_.empty() && verifyQ_.empty();
    }

    /**
     * Skip-ahead hook: tick() only drains the controller queue and the
     * verified-forward queue, each of whose refused head waits for the
     * wake of the component that refused it.
     */
    Tick
    nextWorkTick() const
    {
        const bool pending = !pendingQ_.empty() && !pendWaiter_.blocked();
        const bool verify =
            !verifyQ_.empty() && !verifyWaiter_.blocked();
        return pending || verify ? Tick(0) : MaxTick;
    }

    bool quiesced() const override;
    void checkDrained() const override;
    void snapshot(harden::Snapshot &snap) const override;
    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    NomadBackEnd &backEnd(std::uint32_t idx = 0)
    {
        return *backEnds_[idx];
    }

    std::uint32_t numBackEnds() const
    {
        return static_cast<std::uint32_t>(backEnds_.size());
    }

    const NomadParams &params() const { return params_; }

    /** Aggregate a back-end statistic over all instances. */
    double sumBackEnds(double (*get)(const NomadBackEnd &)) const;

  private:
    /** Routes front-end commands to the back-end owning the CFN. */
    class Router : public DataBackend
    {
      public:
        explicit Router(NomadScheme &owner) : owner_(owner) {}

        void
        offloadFill(PageNum cfn, PageNum pfn, std::uint32_t pri,
                    AcceptCb accepted, DoneCb done) override
        {
            owner_.backEndFor(cfn).sendCacheFill(
                cfn, pfn, pri, std::move(accepted), std::move(done));
        }

        void
        offloadWriteback(PageNum cfn, PageNum pfn, AcceptCb accepted,
                         DoneCb done) override
        {
            owner_.backEndFor(cfn).sendWriteback(
                cfn, pfn, std::move(accepted), std::move(done));
        }

      private:
        NomadScheme &owner_;
    };

    NomadBackEnd &
    backEndFor(PageNum cfn)
    {
        return *backEnds_[cfn % backEnds_.size()];
    }

    /**
     * One attempt at servicing an on-package access; false parks
     * pendWaiter_ on the back-end or HBM channel that refused it.
     */
    bool attemptAccess(const MemRequestPtr &req);

    /** Forward a verified data hit to HBM; false parks verifyWaiter_. */
    bool forwardVerified(const MemRequestPtr &req);

    NomadParams params_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<NomadBackEnd>> backEnds_;
    std::deque<MemRequestPtr> pendingQ_;
    /** Data hits past the verify delay that HBM refused (FIFO). */
    std::deque<MemRequestPtr> verifyQ_;
    /** Data hits still inside the verify delay. */
    std::uint64_t verifyInFlight_ = 0;
    PortWaiter pendWaiter_;   ///< Parks pendingQ_'s refused head.
    PortWaiter verifyWaiter_; ///< Parks verifyQ_'s refused head.
    /** LLC senders refused by a full controller queue. */
    WaiterList waiters_;
    /** This scheme's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_NOMAD_SCHEME_HH
