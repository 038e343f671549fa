#include "line_cache_scheme.hh"

#include "dramcache/scheme_results.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"

namespace nomad
{

void
validateLineCache(const std::string &prefix, const LineCacheParams &p)
{
    auto reject = [&prefix](const std::string &msg) {
        throw harden::SimError(harden::ErrorKind::ConfigError,
                               "bad config: " + prefix + "." + msg);
    };
    if (p.lineBytes < BlockBytes || p.lineBytes % BlockBytes != 0 ||
        p.lineBytes / BlockBytes > 64) {
        reject(detail::concat("lineBytes must be a multiple of 64 up "
                              "to 4096 (got ",
                              p.lineBytes, ")"));
    }
    if (p.assoc == 0)
        reject("assoc must be >= 1");
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(p.assoc) * p.lineBytes;
    if (p.capacityBytes == 0 || p.capacityBytes % set_bytes != 0) {
        reject(detail::concat("capacityBytes (", p.capacityBytes,
                              ") must be a nonzero multiple of assoc x "
                              "lineBytes (",
                              set_bytes, ")"));
    }
    if (p.mshrs == 0)
        reject("mshrs must be >= 1");
    if (p.targetsPerMshr == 0)
        reject("targetsPerMshr must be >= 1");
    // Each of these at 0 stalls the controller for good.
    if (p.maxReadsInFlight == 0)
        reject("maxReadsInFlight must be >= 1");
    if (p.maxWritebackJobs == 0)
        reject("maxWritebackJobs must be >= 1");
    if (p.controllerQueueDepth == 0)
        reject("controllerQueueDepth must be >= 1");
}

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
      params_(params), mshrCounterName_(name + ".mshr")
{
    validateLineCache(name, params);
    numSets_ = params.capacityBytes / (params.lineBytes * params.assoc);
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
            m.launched = false;
            m.blocked = false;
            m.rVec = 0;
            m.bVec = 0;
            m.wVec = 0;
            m.readsInFlight = 0;
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
LineCacheScheme::serviceHit(const MemRequestPtr &req, Addr line_addr,
                            std::uint64_t set, std::uint32_t way)
{
    TagEntry &e = entry(set, way);
    const auto block_idx =
        static_cast<std::uint32_t>((req->addr - line_addr) / BlockBytes);
    auto demand = makeRequest(hbmAddrOf(set, way, block_idx),
                              req->isWrite, Category::Demand,
                              MemSpace::OnPackage, curTick());
    // Forward completion to the original request.
    auto original = req;
    demand->onComplete = [original](Tick when) {
        original->complete(when);
    };
    if (!onPackage_->tryAccess(demand, pump_.waiter())) {
        // Queue full: parked for a retry from the controller queue,
        // before any hit-path side traffic was issued.
        return false;
    }
    e.lastUse = ++useCounter_;
    if (req->isWrite)
        e.dirty = true;
    ++dcHits;
    onHitAccess(line_addr);
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
    const Addr line_addr = req->addr - (req->addr % params_.lineBytes);
    const auto block_idx =
        static_cast<std::uint32_t>((req->addr - line_addr) / BlockBytes);

    // 1. Merge into an in-flight fill when possible.
    if (Mshr *m = findMshr(line_addr)) {
        if (m->targets.size() >= params_.targetsPerMshr)
            return false;
        if ((m->bVec >> block_idx) & 1ULL) {
            // The block already arrived; serve from the fill buffer.
            req->complete(curTick() + 1);
        } else {
            m->targets.push_back(Target{req, block_idx});
        }
        ++dcMissesMerged;
        return true;
    }

    // 2. Probe the tag array.
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t tag = line_addr / params_.lineBytes;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        TagEntry &e = entry(set, w);
        if (e.valid && e.tag == tag)
            return serviceHit(req, line_addr, set, w);
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
            job.ddrLineAddr = v.tag * params_.lineBytes;
            writebackJobs_.push_back(job);
        }
    }
    v.valid = true;
    v.dirty = req->isWrite;
    v.tag = tag;
    v.lastUse = ++useCounter_;

    const auto slot = static_cast<std::uint32_t>(m - mshrs_.data());
    m->lineAddr = line_addr;
    mshrIndex_.insert(line_addr, slot);
    m->set = set;
    m->way = victim;
    m->priIdx = block_idx;
    m->targets.push_back(Target{req, block_idx});
    m->startedAt = curTick();
    m->traceId = 0;
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        m->traceId = sink->nextAsyncId();
        sink->asyncBegin(
            tracePid(), "linefill", trace::Cat::Copy, m->traceId,
            m->startedAt,
            {{"line_addr", static_cast<double>(m->lineAddr)},
             {"set", static_cast<double>(m->set)},
             {"way", static_cast<double>(m->way)},
             {"pri_idx", static_cast<double>(m->priIdx)}});
    }
    traceMshrCounter();
    launchFetch(slot);
    recordOutcome(false);
    return true;
}

void
LineCacheScheme::traceMshrCounter()
{
    if (auto *sink = tracer()) {
        sink->counter(
            tracePid(), mshrCounterName_.c_str(), curTick(),
            {{"active", static_cast<double>(activeMshrs_)},
             {"writeback_jobs",
              static_cast<double>(writebackJobs_.size())}});
    }
}

void
LineCacheScheme::issueFetch(std::size_t slot)
{
    mshrs_[slot].launched = true;
    pumpMshr(slot);
}

void
LineCacheScheme::pumpMshr(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    const std::uint64_t all = allBlocks();
    const std::uint32_t blocks = params_.lineBytes / BlockBytes;
    bool blocked = false;
    // Issue off-package reads, critical block first, then sequential.
    while (m.readsInFlight < params_.maxReadsInFlight && m.rVec != all) {
        std::uint32_t idx = m.priIdx;
        while ((m.rVec >> idx) & 1ULL)
            idx = (idx + 1) % blocks;
        const std::uint64_t gen = m.generation;
        auto req = makeRequest(
            m.lineAddr + static_cast<Addr>(idx) * BlockBytes, false,
            Category::Fill, MemSpace::OffPackage, curTick(),
            [this, slot, gen, idx](Tick when) {
                onFillBlock(slot, gen, idx, when);
            });
        if (!offPackage_.tryAccess(req, pump_.waiter())) {
            blocked = true;
            break;
        }
        m.rVec |= (1ULL << idx);
        ++m.readsInFlight;
        pump_.progress();
    }

    // Drain arrived blocks into the on-package data array.
    for (std::uint64_t ready = m.bVec & ~m.wVec; ready != 0;
         ready &= ready - 1) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        auto wr = makeRequest(hbmAddrOf(m.set, m.way, idx), true,
                              Category::Fill, MemSpace::OnPackage,
                              curTick());
        if (!onPackage_->tryAccess(wr, pump_.waiter())) {
            blocked = true;
            break;
        }
        m.wVec |= (1ULL << idx);
        pump_.progress();
    }

    setBlocked(m, blocked);
    if (m.wVec == all)
        releaseMshr(slot);
}

void
LineCacheScheme::onFillBlock(std::size_t slot, std::uint64_t gen,
                             std::uint32_t idx, Tick when)
{
    touch();
    Mshr &m = mshrs_[slot];
    if (!m.valid || m.generation != gen)
        return;
    --m.readsInFlight;
    m.bVec |= (1ULL << idx);
    if (idx == m.priIdx) {
        if (auto *sink = m.traceId ? tracer() : nullptr) {
            sink->asyncInstant(
                tracePid(), "critical_block", trace::Cat::Copy,
                m.traceId, when,
                {{"block", static_cast<double>(idx)}});
        }
    }
    // Critical-block-first response: targets complete on arrival.
    for (auto it = m.targets.begin(); it != m.targets.end();) {
        if (it->blockIdx == idx) {
            it->req->complete(when + 1);
            it = m.targets.erase(it);
        } else {
            ++it;
        }
    }
    pumpMshr(slot);
}

void
LineCacheScheme::releaseMshr(std::size_t slot)
{
    Mshr &m = mshrs_[slot];
    if (auto *sink = m.traceId ? tracer() : nullptr) {
        sink->asyncEnd(
            tracePid(), "linefill", trace::Cat::Copy, m.traceId,
            curTick(),
            {{"latency", static_cast<double>(curTick() - m.startedAt)}});
    }
    m.traceId = 0;
    ++m.generation;
    m.valid = false;
    mshrIndex_.erase(m.lineAddr);
    --activeMshrs_;
    traceMshrCounter();
}

void
LineCacheScheme::pumpWriteback(WritebackJob &job)
{
    const std::uint64_t all = allBlocks();
    // Read the victim's blocks on-package in order...
    while (job.readsInFlight < params_.maxReadsInFlight &&
           job.rVec != all) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(~job.rVec));
        const std::uint64_t id = job.id;
        auto req = makeRequest(
            job.hbmLineAddr + static_cast<Addr>(idx) * BlockBytes,
            false, Category::Writeback, MemSpace::OnPackage, curTick(),
            [this, id, idx](Tick) {
                touch();
                // Look up by id: the job vector may have reallocated.
                if (WritebackJob *j = findWriteback(id)) {
                    j->bVec |= (1ULL << idx);
                    --j->readsInFlight;
                }
            });
        if (!onPackage_->tryAccess(req, pump_.waiter()))
            break;
        job.rVec |= (1ULL << idx);
        ++job.readsInFlight;
        pump_.progress();
    }
    // ...and write each one off-package once its data is back.
    for (std::uint64_t ready = job.bVec & ~job.wVec; ready != 0;
         ready &= ready - 1) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        auto wr = makeRequest(
            job.ddrLineAddr + static_cast<Addr>(idx) * BlockBytes, true,
            Category::Writeback, MemSpace::OffPackage, curTick());
        if (!offPackage_.tryAccess(wr, pump_.waiter()))
            break;
        job.wVec |= (1ULL << idx);
        pump_.progress();
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
    // itself forward from arrival callbacks (Mshr::blocked).
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        Mshr &m = mshrs_[i];
        if (!m.valid || !m.blocked)
            continue;
        if (m.launched)
            pumpMshr(i);
        else
            retryLaunch(i);
        // Only an accepted request clears the blocked flag.
        if (!m.blocked)
            pump_.progress();
    }
    const std::uint64_t all = allBlocks();
    for (auto it = writebackJobs_.begin();
         it != writebackJobs_.end();) {
        pumpWriteback(*it);
        if (it->wVec == all)
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
            (dcMisses.value() + dirtyWritebacks.value()) *
            params_.lineBytes;
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
