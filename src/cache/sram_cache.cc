#include "sram_cache.hh"

#include <algorithm>

namespace nomad
{

SramCache::SramCache(Simulation &sim, const std::string &name,
                     const CacheParams &params, MemPort *downstream)
    : SimObject(sim, name),
      hits(name + ".hits", "demand hits"),
      misses(name + ".misses", "demand misses (MSHR allocations)"),
      missesMerged(name + ".missesMerged",
                   "requests merged into an in-flight MSHR"),
      writebacks(name + ".writebacks", "dirty lines written back"),
      rejects(name + ".rejects", "requests rejected (backpressure)"),
      invalidations(name + ".invalidations",
                    "lines killed by range invalidation"),
      missLatency(name + ".missLatency",
                  "MSHR allocation to fill latency (ticks)"),
      params_(params), downstream_(downstream)
{
    fatal_if(params.sizeBytes % (params.assoc * BlockBytes) != 0,
             name, ": size must be a multiple of assoc * 64B");
    numSets_ = params.sizeBytes / (params.assoc * BlockBytes);
    lines_.resize(numSets_ * params.assoc);
    lineKeys_.assign(numSets_ * params.assoc, 0);
    mshrs_.resize(params.mshrs);
    mshrIndex_.reserve(params.mshrs);

    auto &reg = sim.statistics();
    reg.add(&hits);
    reg.add(&misses);
    reg.add(&missesMerged);
    reg.add(&writebacks);
    reg.add(&rejects);
    reg.add(&invalidations);
    reg.add(&missLatency);

    wakeIdx_ = sim.addClocked(this, 1);
    sendWaiter_.bind(sim, wakeIdx_);
}

SramCache::Line *
SramCache::findLine(MemSpace space, Addr block)
{
    const Addr key = keyOf(space, block);
    const std::size_t base = setIndex(block) * params_.assoc;
    const Addr *keys = &lineKeys_[base];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (keys[w] == key)
            return &lines_[base + w];
    }
    return nullptr;
}

SramCache::Mshr *
SramCache::findMshr(MemSpace space, Addr block)
{
    if (const std::uint32_t *slot =
            mshrIndex_.find(keyOf(space, block))) {
        return &mshrs_[*slot];
    }
    return nullptr;
}

SramCache::Mshr *
SramCache::allocMshr(MemSpace space, Addr block)
{
    // Under MSHR saturation every retry re-scanned the full array just
    // to fail; the occupancy count answers that in one compare.
    if (activeMshrs_ == params_.mshrs)
        return nullptr;
    for (auto &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.discard = false;
            m.fillIssued = false;
            m.wantDirty = false;
            m.space = space;
            m.block = block;
            m.allocated = curTick();
            m.targets.clear();
            ++activeMshrs_;
            mshrIndex_.insert(
                keyOf(space, block),
                static_cast<std::uint32_t>(&m - mshrs_.data()));
            return &m;
        }
    }
    return nullptr;
}

bool
SramCache::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    sim_.pokeClocked(wakeIdx_);
    const Tick now = curTick();
    const Addr block = blockAlign(req->addr);
    const MemSpace space = req->space;

    if (Line *line = findLine(space, block)) {
        line->lastUse = ++useCounter_;
        if (req->isWrite)
            line->dirty = true;
        ++hits;
        const Tick done = now + params_.hitLatency;
        auto r = req;
        schedule(params_.hitLatency, [r, done]() { r->complete(done); });
        return true;
    }

    Mshr *inflight = findMshr(space, block);

    if (req->isWrite && req->fullLine && !inflight) {
        // A full-line writeback from the level above: install directly
        // without fetching the stale copy from below. A parked sender
        // of this block can now hit.
        installLine(space, block, true);
        waiters_.wakeAll();
        ++hits;
        req->complete(now + params_.hitLatency);
        return true;
    }

    if (Mshr *mshr = inflight) {
        if (mshr->targets.size() >= params_.targetsPerMshr) {
            ++rejects;
            waiters_.park(waiter);
            return false;
        }
        mshr->targets.push_back(req);
        if (req->isWrite)
            mshr->wantDirty = true;
        ++missesMerged;
        return true;
    }

    Mshr *mshr = allocMshr(space, block);
    if (!mshr) {
        ++rejects;
        waiters_.park(waiter);
        return false;
    }
    ++misses;
    mshr->targets.push_back(req);
    mshr->wantDirty = req->isWrite;
    issueFill(mshr);
    return true;
}

void
SramCache::issueFill(Mshr *mshr)
{
    // The fill inherits the category of its first target so DRAM-level
    // traffic accounting stays faithful to the original cause.
    const Category cat = mshr->targets.front()->category;
    auto fill = makeRequest(
        mshr->block, false, cat, mshr->space, curTick(),
        [this, mshr](Tick when) { handleFill(mshr, when); });
    mshr->fillIssued = true;
    pushDownstream(fill);
}

void
SramCache::handleFill(Mshr *mshr, Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    panic_if(!mshr->valid, name_, ": fill for an invalid MSHR");
    missLatency.sample(static_cast<double>(when - mshr->allocated));
    // Discarded MSHRs left the index when the range invalidation hit
    // them; erasing here could clobber a newer MSHR reusing the key.
    if (!mshr->discard) {
        mshrIndex_.erase(keyOf(mshr->space, mshr->block));
        installLine(mshr->space, mshr->block, mshr->wantDirty);
    }
    // Respond to all merged requests. Completing in a fresh callback
    // keeps reentrancy out of the DRAM completion path.
    for (auto &target : mshr->targets)
        target->complete(when);
    mshr->targets.clear();
    mshr->valid = false;
    --activeMshrs_;
    // A free MSHR (and the installed line) can admit a parked sender.
    waiters_.wakeAll();
}

void
SramCache::installLine(MemSpace space, Addr block, bool dirty)
{
    Line *base = &lines_[setIndex(block) * params_.assoc];
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
    }
    if (!victim) {
        victim = base;
        for (std::uint32_t w = 1; w < params_.assoc; ++w) {
            Line &line = base[w];
            const bool older =
                params_.policy == CacheReplPolicy::Lru
                    ? line.lastUse < victim->lastUse
                    : line.inserted < victim->inserted;
            if (older)
                victim = &line;
        }
        if (victim->dirty) {
            ++writebacks;
            auto wb = makeRequest(victim->block, true, Category::Demand,
                                  victim->space, curTick());
            wb->fullLine = true;
            pushDownstream(wb);
        }
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->space = space;
    victim->block = block;
    victim->lastUse = ++useCounter_;
    victim->inserted = ++useCounter_;
    lineKeys_[static_cast<std::size_t>(victim - lines_.data())] =
        keyOf(space, block);
}

void
SramCache::pushDownstream(const MemRequestPtr &req)
{
    if (sendQ_.empty() && downstream_->tryAccess(req, &sendWaiter_))
        return;
    sendQ_.push_back(req);
}

void
SramCache::tick()
{
    if (sendWaiter_.blocked())
        return; // Parked until the downstream wakes the queue head.
    while (!sendQ_.empty() &&
           downstream_->tryAccess(sendQ_.front(), &sendWaiter_)) {
        sendQ_.pop_front();
    }
}

std::uint32_t
SramCache::invalidateRange(MemSpace space, Addr base, std::uint64_t len)
{
    sim_.pokeClocked(wakeIdx_);
    std::uint32_t killed = 0;
    for (Addr a = blockAlign(base); a < base + len; a += BlockBytes) {
        if (Line *line = findLine(space, a)) {
            if (line->dirty) {
                ++writebacks;
                auto wb = makeRequest(line->block, true,
                                      Category::Demand, line->space,
                                      curTick());
                wb->fullLine = true;
                pushDownstream(wb);
            }
            line->valid = false;
            line->dirty = false;
            lineKeys_[static_cast<std::size_t>(line - lines_.data())] =
                0;
            ++killed;
        }
        if (Mshr *mshr = findMshr(space, a)) {
            mshr->discard = true;
            // findMshr skips discarded MSHRs; keep the index in step.
            mshrIndex_.erase(keyOf(space, a));
        }
    }
    invalidations += killed;
    // A discarded MSHR no longer refuses merges into it, and the range
    // usually follows a remap that changes the address a parked core
    // would retry with.
    waiters_.wakeAll();
    return killed;
}

bool
SramCache::isCached(MemSpace space, Addr addr) const
{
    const Addr block = blockAlign(addr);
    const Addr key = keyOf(space, block);
    const Addr *keys = &lineKeys_[setIndex(block) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (keys[w] == key)
            return true;
    }
    return false;
}

} // namespace nomad
