#include "line_cache_scheme.hh"

#include "dramcache/scheme_results.hh"
#include "sim/stat_sampler.hh"

namespace nomad
{

LineCacheScheme::LineCacheScheme(Simulation &sim,
                                 const std::string &name,
                                 const LineCacheParams &params,
                                 DramDevice &off_package,
                                 DramDevice &on_package,
                                 PageTable &page_table)
    : DramCacheScheme(sim, name, off_package, &on_package, page_table),
      dcHits(name + ".dcHits", "DRAM cache line hits"),
      dcMisses(name + ".dcMisses", "DRAM cache line misses"),
      dcMissesMerged(name + ".dcMissesMerged",
                     "accesses merged into in-flight MSHRs"),
      conflictEvictions(name + ".conflictEvictions",
                        "valid lines evicted on allocation"),
      dirtyWritebacks(name + ".dirtyWritebacks",
                      "dirty victim lines written back"),
      rejects(name + ".rejects", "accesses rejected (backpressure)"),
      params_(params)
{
    fatal_if(params.assoc == 0, name, ": assoc must be >= 1");
    fatal_if(params.capacityBytes % (BlockBytes * params.assoc) != 0,
             name, ": capacity must divide into sets");
    fatal_if(params.mshrs == 0, name, ": need at least one MSHR");
    numSets_ = params.capacityBytes / (BlockBytes * params.assoc);
    tags_.resize(numSets_ * params.assoc);
    mshrs_.resize(params.mshrs);
    mshrIndex_.reserve(params.mshrs);
    for (auto &m : mshrs_)
        m.targets.reserve(params.targetsPerMshr);

    auto &reg = sim.statistics();
    reg.add(&dcHits);
    reg.add(&dcMisses);
    reg.add(&dcMissesMerged);
    reg.add(&conflictEvictions);
    reg.add(&dirtyWritebacks);
    reg.add(&rejects);

    wakeIdx_ = sim.addClocked(this, 1);
    pump_.bind(sim, wakeIdx_);
}

LineCacheScheme::Mshr *
LineCacheScheme::findMshr(Addr line_addr)
{
    if (const std::uint32_t *slot = mshrIndex_.find(line_addr))
        return &mshrs_[*slot];
    return nullptr;
}

LineCacheScheme::Mshr *
LineCacheScheme::allocMshr()
{
    if (activeMshrs_ == params_.mshrs)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.makeDirty = false;
            m.arrived = false;
            m.blocked = false;
            m.state = FetchState::PreFetch;
            m.targets.clear();
            ++activeMshrs_;
            return &m;
        }
    }
    return nullptr;
}

void
LineCacheScheme::setBlocked(Mshr &m, bool blocked)
{
    if (m.blocked == blocked)
        return;
    m.blocked = blocked;
    if (blocked)
        ++blockedMshrs_;
    else
        --blockedMshrs_;
}

bool
LineCacheScheme::serviceHit(const MemRequestPtr &req, std::uint64_t set,
                            std::uint32_t way)
{
    TagEntry &e = entry(set, way);
    auto demand = makeRequest(hbmAddrOf(set, way), req->isWrite,
                              Category::Demand, MemSpace::OnPackage,
                              curTick());
    // Forward completion to the original request. The single
    // on-package burst carries tag and data together (TAD / tag-
    // enhanced row), so a hit costs no metadata traffic.
    auto original = req;
    demand->onComplete = [original](Tick when) {
        original->complete(when);
    };
    if (!onPackage_->tryAccess(demand, pump_.waiter()))
        return false;
    e.lastUse = ++useCounter_;
    if (req->isWrite)
        e.dirty = true;
    ++dcHits;
    onHitAccess(req->addr - (req->addr % BlockBytes));
    recordOutcome(true);
    return true;
}

bool
LineCacheScheme::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    touch();
    panic_if(req->space != MemSpace::OffPackage,
             name_, " expects physical-address traffic");
    trackDemandRead(req);
    if (!pendingQ_.empty() || !attemptAccess(req)) {
        // Park in the DC controller queue rather than bouncing the
        // request back into the LLC's (FIFO) send path.
        if (pendingQ_.size() >= params_.controllerQueueDepth) {
            ++rejects;
            waiters_.park(waiter);
            return false;
        }
        pendingQ_.push_back(req);
    }
    return true;
}

bool
LineCacheScheme::attemptAccess(const MemRequestPtr &req)
{
    const Addr line_addr = req->addr - (req->addr % BlockBytes);

    // 1. Merge into an in-flight fill when possible.
    if (Mshr *m = findMshr(line_addr)) {
        if (m->arrived) {
            // The line already landed; serve from the fill buffer.
            req->complete(curTick() + 1);
        } else {
            if (m->targets.size() >= params_.targetsPerMshr)
                return false;
            m->targets.push_back(req);
        }
        if (req->isWrite)
            m->makeDirty = true;
        ++dcMissesMerged;
        return true;
    }

    // 2. Probe the tag array.
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t tag = tagOf(line_addr);
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        TagEntry &e = entry(set, w);
        if (e.valid && e.tag == tag)
            return serviceHit(req, set, w);
    }

    // 3. Miss: allocate an MSHR and a victim way.
    if (writebackJobs_.size() >= params_.maxWritebackJobs)
        return false;
    Mshr *m = allocMshr();
    if (!m)
        return false;
    ++dcMisses;

    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < params_.assoc; ++w) {
        if (!entry(set, w).valid) {
            victim = w;
            break;
        }
        if (entry(set, w).lastUse < entry(set, victim).lastUse &&
            entry(set, victim).valid) {
            victim = w;
        }
    }
    TagEntry &v = entry(set, victim);
    if (v.valid) {
        ++conflictEvictions;
        if (v.dirty) {
            ++dirtyWritebacks;
            WritebackJob job;
            job.id = nextWritebackId_++;
            job.hbmLineAddr = hbmAddrOf(set, victim);
            job.ddrLineAddr = v.tag * static_cast<Addr>(BlockBytes);
            writebackJobs_.push_back(job);
        }
    }
    v.valid = true;
    v.dirty = req->isWrite;
    v.tag = tag;
    v.lastUse = ++useCounter_;

    m->lineAddr = line_addr;
    mshrIndex_.insert(line_addr, static_cast<std::uint32_t>(
                                     m - mshrs_.data()));
    m->set = set;
    m->way = victim;
    m->makeDirty = req->isWrite;
    m->targets.push_back(req);
    launchFetch(static_cast<std::size_t>(m - mshrs_.data()));
    recordOutcome(false);
    return true;
}

void
LineCacheScheme::issueFetch(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    const std::uint64_t gen = m.generation;
    auto req = makeRequest(m.lineAddr, false, Category::Fill,
                           MemSpace::OffPackage, curTick(),
                           [this, slot, gen](Tick when) {
                               onFetchArrive(slot, gen, when);
                           });
    if (!offPackage_.tryAccess(req, pump_.waiter())) {
        m.state = FetchState::Fetch;
        setBlocked(m, true);
        return;
    }
    m.state = FetchState::InFlight;
    setBlocked(m, false);
}

void
LineCacheScheme::onFetchArrive(std::size_t slot, std::uint64_t gen,
                               Tick when)
{
    touch();
    Mshr &m = mshrs_[slot];
    if (!m.valid || m.generation != gen)
        return;
    m.arrived = true;
    // Critical-data-first response: targets complete on arrival; the
    // install write proceeds in the background.
    for (auto &target : m.targets)
        target->complete(when + 1);
    m.targets.clear();
    m.state = FetchState::Install;
    tryInstall(slot);
}

void
LineCacheScheme::tryInstall(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    auto wr = makeRequest(hbmAddrOf(m.set, m.way), true,
                          Category::Fill, MemSpace::OnPackage,
                          curTick());
    if (!onPackage_->tryAccess(wr, pump_.waiter())) {
        setBlocked(m, true);
        return;
    }
    setBlocked(m, false);
    releaseMshr(slot);
}

void
LineCacheScheme::releaseMshr(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    ++m.generation;
    m.valid = false;
    mshrIndex_.erase(m.lineAddr);
    --activeMshrs_;
}

void
LineCacheScheme::pumpWriteback(WritebackJob &job)
{
    if (!job.readDone && !job.readInFlight) {
        const std::uint64_t id = job.id;
        auto req = makeRequest(
            job.hbmLineAddr, false, Category::Writeback,
            MemSpace::OnPackage, curTick(), [this, id](Tick) {
                touch();
                // Look up by id: the job vector may have reallocated.
                if (WritebackJob *j = findWriteback(id)) {
                    j->readDone = true;
                    j->readInFlight = false;
                }
            });
        if (onPackage_->tryAccess(req, pump_.waiter())) {
            job.readInFlight = true;
            pump_.progress();
        }
        return;
    }
    if (job.readDone) {
        auto wr = makeRequest(job.ddrLineAddr, true,
                              Category::Writeback, MemSpace::OffPackage,
                              curTick());
        if (offPackage_.tryAccess(wr, pump_.waiter())) {
            job.id = 0; // Done marker; reaped by tick().
            pump_.progress();
        }
    }
}

LineCacheScheme::WritebackJob *
LineCacheScheme::findWriteback(std::uint64_t id)
{
    for (auto &job : writebackJobs_)
        if (job.id == id)
            return &job;
    return nullptr;
}

void
LineCacheScheme::tick()
{
    if (pump_.asleep())
        return; // The pass below is a proven no-op until woken.
    pump_.beginPass();
    while (!pendingQ_.empty() && attemptAccess(pendingQ_.front())) {
        pendingQ_.pop_front();
        pump_.progress();
        waiters_.wakeAll();
    }
    // Only backpressured MSHRs are re-pumped: everything else drives
    // itself forward from the fetch-arrival callback.
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        Mshr &m = mshrs_[i];
        if (!m.valid || !m.blocked)
            continue;
        switch (m.state) {
        case FetchState::PreFetch:
            retryLaunch(i);
            break;
        case FetchState::Fetch:
            issueFetch(i);
            break;
        case FetchState::Install:
            tryInstall(i);
            break;
        case FetchState::InFlight:
            break;
        }
        // Only an accepted request clears the blocked flag.
        if (!m.blocked)
            pump_.progress();
    }
    for (auto it = writebackJobs_.begin();
         it != writebackJobs_.end();) {
        pumpWriteback(*it);
        if (it->id == 0)
            it = writebackJobs_.erase(it);
        else
            ++it;
    }
    pump_.endPass();
}

void
LineCacheScheme::checkDrained() const
{
    NOMAD_CHECK(*this, activeMshrs_ == 0,
                "MSHR leak: ", activeMshrs_, " still active at drain");
    NOMAD_CHECK(*this, writebackJobs_.empty(),
                "writeback leak: ", writebackJobs_.size(),
                " jobs still streaming at drain");
    NOMAD_CHECK(*this, pendingQ_.empty(),
                "DC controller leak: ", pendingQ_.size(),
                " accesses still queued at drain");
    NOMAD_CHECK(*this, waiters_.parked() == 0,
                "waiter leak: ", waiters_.parked(),
                " LLC senders still parked at drain");
}

void
LineCacheScheme::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activeMshrs", static_cast<double>(activeMshrs_));
    snap.set(name_, "writebackJobs",
             static_cast<double>(writebackJobs_.size()));
    snap.set(name_, "pendingAccesses",
             static_cast<double>(pendingQ_.size()));
}

void
LineCacheScheme::collectStats(SystemResults &r) const
{
    r.fills = static_cast<std::uint64_t>(dcMisses.value());
    r.writebacks = static_cast<std::uint64_t>(dirtyWritebacks.value());
    if (r.seconds > 0) {
        const double bytes =
            (dcMisses.value() + dirtyWritebacks.value()) * BlockBytes;
        r.rmhbGBs = bytes / BytesPerGB / r.seconds;
    }
}

void
LineCacheScheme::samplerProbes(StatSampler &sampler)
{
    sampler.addProbe(name_ + ".mshr.active", [this]() {
        return static_cast<double>(activeMshrs_);
    });
    sampler.addStat(&dcMisses);
    sampler.addStat(&dirtyWritebacks);
}

} // namespace nomad
