#include "nomad_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "system/system.hh"

namespace nomad
{

NomadScheme::NomadScheme(Simulation &sim, const std::string &name,
                         const NomadParams &params,
                         DramDevice &off_package, DramDevice &on_package,
                         PageTable &page_table)
    : OsManagedScheme(sim, name, off_package, on_package, page_table),
      params_(params)
{
    fatal_if(params.numBackEnds == 0, name, ": need >= 1 back-end");
    router_ = std::make_unique<Router>(*this);
    for (std::uint32_t i = 0; i < params.numBackEnds; ++i) {
        backEnds_.push_back(std::make_unique<NomadBackEnd>(
            sim, name + ".be" + std::to_string(i), params.backEnd,
            on_package, off_package));
    }
    // Non-blocking resume is NOMAD's defining property; the global
    // mutex stays configurable for ablation (default on, per Alg 1).
    OsFrontEndParams fe = params.frontEnd;
    fe.blocking = false;
    frontEnd_ = std::make_unique<OsFrontEnd>(sim, name + ".fe", fe,
                                             page_table, *router_);
    wakeIdx_ = sim.addClocked(this, 1);
    pendWaiter_.bind(sim, wakeIdx_);
    verifyWaiter_.bind(sim, wakeIdx_);
}

bool
NomadScheme::attemptAccess(const MemRequestPtr &req)
{
    NomadBackEnd &be = backEndFor(pageOf(req->addr));
    switch (be.access(req, &pendWaiter_)) {
      case NomadBackEnd::AccessResult::DataHit:
        if (params_.verifyLatency > 0) {
            // Model the CAM-compare delay by forwarding after it; a
            // refused forward waits in verifyQ_ for the HBM wake.
            // Default is 0 per the paper's CACTI analysis (0.21 cyc).
            ++verifyInFlight_;
            auto r = req;
            schedule(params_.verifyLatency, [this, r]() {
                sim_.pokeClocked(wakeIdx_);
                --verifyInFlight_;
                if (verifyQ_.empty() && forwardVerified(r))
                    return;
                verifyQ_.push_back(r);
            });
            return true;
        }
        if (!onPackage_->tryAccess(req, &pendWaiter_))
            return false;
        be.dataHits += 1;
        return true;
      case NomadBackEnd::AccessResult::Serviced:
      case NomadBackEnd::AccessResult::Pending:
        return true;
      case NomadBackEnd::AccessResult::Reject:
        return false;
    }
    return false;
}

bool
NomadScheme::forwardVerified(const MemRequestPtr &req)
{
    if (!onPackage_->tryAccess(req, &verifyWaiter_))
        return false;
    backEndFor(pageOf(req->addr)).dataHits += 1;
    return true;
}

bool
NomadScheme::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    sim_.pokeClocked(wakeIdx_);
    if (req->space == MemSpace::OffPackage) {
        // Non-cached pages (evicted frames, NC pages) behave like the
        // conventional memory system (Section III-E, (hit, miss) case).
        trackDemandRead(req);
        return offPackage_.tryAccess(req, waiter);
    }

    // DC access: verify data presence against the owning back-end.
    trackDemandRead(req);
    if (!pendingQ_.empty() || !attemptAccess(req)) {
        // Park in the DC controller queue rather than bouncing the
        // request back into the LLC's (FIFO) send path.
        if (pendingQ_.size() >= params_.controllerQueueDepth) {
            waiters_.park(waiter);
            return false;
        }
        pendingQ_.push_back(req);
    }
    return true;
}

void
NomadScheme::tick()
{
    if (!verifyWaiter_.blocked()) {
        while (!verifyQ_.empty() && forwardVerified(verifyQ_.front()))
            verifyQ_.pop_front();
    }
    if (pendWaiter_.blocked())
        return; // Parked until the refusing component wakes the head.
    while (!pendingQ_.empty() && attemptAccess(pendingQ_.front())) {
        pendingQ_.pop_front();
        waiters_.wakeAll();
    }
}

bool
NomadScheme::quiesced() const
{
    if (!OsManagedScheme::quiesced() || !pendingQ_.empty() ||
        !verifyQ_.empty() || verifyInFlight_ != 0) {
        return false;
    }
    for (const auto &be : backEnds_) {
        if (!be->idle())
            return false;
    }
    return true;
}

void
NomadScheme::checkDrained() const
{
    OsManagedScheme::checkDrained();
    NOMAD_CHECK(*this, pendingQ_.empty(),
                "DC controller leak: ", pendingQ_.size(),
                " accesses still queued at drain");
    NOMAD_CHECK(*this, verifyQ_.empty() && verifyInFlight_ == 0,
                "verify leak: ", verifyQ_.size() + verifyInFlight_,
                " data hits still unforwarded at drain");
    NOMAD_CHECK(*this, waiters_.parked() == 0,
                "waiter leak: ", waiters_.parked(),
                " LLC senders still parked at drain");
    for (const auto &be : backEnds_)
        be->checkDrained();
}

void
NomadScheme::snapshot(harden::Snapshot &snap) const
{
    OsManagedScheme::snapshot(snap);
    snap.set(name_, "pendingAccesses",
             static_cast<double>(pendingQ_.size()));
    for (const auto &be : backEnds_)
        be->snapshot(snap);
}

double
NomadScheme::sumBackEnds(double (*get)(const NomadBackEnd &)) const
{
    double total = 0.0;
    for (const auto &be : backEnds_)
        total += get(*be);
    return total;
}

void
NomadScheme::collectStats(SystemResults &r) const
{
    OsManagedScheme::collectStats(r);
    double hits = 0, misses = 0, buffer_hits = 0, pending = 0;
    for (const auto &be : backEnds_) {
        hits += be->dataHits.value();
        misses += be->dataMisses.value();
        buffer_hits += be->bufferReadHits.value();
        pending += be->pendingServed.value();
    }
    const double read_misses = buffer_hits + pending;
    r.bufferHitRate = read_misses > 0 ? buffer_hits / read_misses : 0;
    const double total = hits + misses;
    r.dataMissRate = total > 0 ? misses / total : 0;
}

void
NomadScheme::samplerProbes(StatSampler &sampler)
{
    OsManagedScheme::samplerProbes(sampler);
    sampler.addProbe("nomad.pcshr.active", [this]() {
        double sum = 0;
        for (const auto &be : backEnds_)
            sum += be->activePcshrs();
        return sum;
    });
    sampler.addProbe("nomad.pcshr.queued", [this]() {
        double sum = 0;
        for (const auto &be : backEnds_)
            sum += be->interfaceQueueDepth();
        return sum;
    });
}

void
registerNomadScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Nomad;
    entry.name = schemeKindName(SchemeKind::Nomad);
    entry.description =
        "non-blocking OS-managed DRAM cache (the paper's scheme)";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        const SystemConfig &cfg = ctx.config;
        NomadParams p = cfg.nomad;
        p.frontEnd.numFrames = cfg.dcFrames;
        p.frontEnd.evictionThreshold =
            std::max<std::uint64_t>(96, cfg.dcFrames / 8);
        p.backEnd.copyTimeoutTicks = ctx.copyTimeoutTicks;
        return std::make_unique<NomadScheme>(ctx.sim, "nomad", p,
                                             ctx.offPackage,
                                             ctx.onPackage,
                                             ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        const NomadBackEndParams &be = cfg.nomad.backEnd;
        if (be.numPcshrs == 0)
            reject("nomad.backEnd.numPcshrs must be >= 1");
        if (be.numBuffers > be.numPcshrs)
            reject(detail::concat("nomad.backEnd.numBuffers (",
                                  be.numBuffers,
                                  ") must not exceed numPcshrs (",
                                  be.numPcshrs,
                                  "); a buffer is only ever assigned "
                                  "to one PCSHR"));
        if (be.subEntriesPerPcshr == 0)
            reject("nomad.backEnd.subEntriesPerPcshr must be >= 1");
        if (be.maxReadsInFlight == 0)
            reject("nomad.backEnd.maxReadsInFlight must be >= 1");
        if (be.bufferReadLatency == 0)
            reject("nomad.backEnd.bufferReadLatency must be a nonzero "
                   "latency");
        if (cfg.nomad.numBackEnds == 0)
            reject("nomad.numBackEnds must be >= 1");
        if (cfg.nomad.controllerQueueDepth == 0)
            reject("nomad.controllerQueueDepth must be >= 1");
    };
    reg.add(std::move(entry));
}

} // namespace nomad
