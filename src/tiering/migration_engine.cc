#include "migration_engine.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "harden/fault.hh"
#include "sim/trace.hh"

namespace nomad
{

MigrationEngine::MigrationEngine(Simulation &sim, const std::string &name,
                                 const MigrationEngineParams &params,
                                 DramDevice &near, MemPort &far_link)
    : SimObject(sim, name),
      promotionsStarted(name + ".promotionsStarted",
                        "promotion copies started"),
      demotionsStarted(name + ".demotionsStarted",
                       "demotion writebacks started"),
      promotionsDone(name + ".promotionsDone",
                     "promotion copies completed"),
      demotionsDone(name + ".demotionsDone",
                    "demotion writebacks completed"),
      writeAborts(name + ".writeAborts",
                  "write-triggered migration aborts (rewind + refetch)"),
      migrationsFailed(name + ".migrationsFailed",
                       "migrations cancelled past the abort budget"),
      staleReadsDropped(name + ".staleReadsDropped",
                        "read arrivals orphaned by aborts/releases"),
      migrationLatency(name + ".migrationLatency",
                       "migration start to completion (ticks)"),
      copyRetries(name + ".copyRetries",
                  "copy-timeout abort-and-refetch events"),
      params_(params), near_(near), farLink_(far_link)
{
    fatal_if(params.numSlots == 0, name,
             ": need at least one migration slot");
    fatal_if(params.maxReadsInFlight == 0, name,
             ": need at least one in-flight read");
    slots_.resize(params.numSlots);
    promoIndex_.reserve(params.numSlots);
    demoIndex_.reserve(params.numSlots);

    auto &reg = sim.statistics();
    reg.add(&promotionsStarted);
    reg.add(&demotionsStarted);
    reg.add(&promotionsDone);
    reg.add(&demotionsDone);
    reg.add(&writeAborts);
    reg.add(&migrationsFailed);
    reg.add(&staleReadsDropped);
    reg.add(&migrationLatency);

    // Mirrors NomadBackEnd: the retry stat only exists on hardened
    // runs so the default stats-JSON stream stays byte-identical.
    if (const harden::Context *ctx = sim.harden()) {
        injector_ = ctx->injector;
        reg.add(&copyRetries);
    }

    wakeIdx_ = sim.addClocked(this, 1);
    pump_.bind(sim, wakeIdx_);
}

const char *
MigrationEngine::spanName(bool is_demotion) const
{
    return is_demotion ? "demote" : "promote";
}

bool
MigrationEngine::startPromotion(PageNum pfn, PageNum cfn,
                                DoneCallback done, FailCallback failed)
{
    return startMigration(false, pfn, cfn, std::move(done),
                          std::move(failed));
}

bool
MigrationEngine::startDemotion(PageNum cfn, PageNum pfn,
                               DoneCallback done, FailCallback failed)
{
    return startMigration(true, pfn, cfn, std::move(done),
                          std::move(failed));
}

bool
MigrationEngine::startMigration(bool is_demotion, PageNum pfn,
                                PageNum cfn, DoneCallback done,
                                FailCallback failed)
{
    sim_.pokeClocked(wakeIdx_);
    const int slot = findFreeSlot();
    if (slot < 0)
        return false; // Engine saturated; the caller declines.
    pump_.touch();
    const Tick now = curTick();
    Slot &s = slots_[slot];
    panic_if(s.valid, "allocating a busy migration slot");

    s.valid = true;
    s.isDemotion = is_demotion;
    s.pfn = pfn;
    s.cfn = cfn;
    s.abortRetries = 0;
    s.arm(now);
    s.acceptedAt = now;
    s.stuck = injector_ != nullptr && injector_->makeStuck();
    s.onDone = std::move(done);
    s.onFail = std::move(failed);
    ++activeSlots_;
    if (is_demotion) {
        demoIndex_.insert(cfn, slot);
        ++demotionsStarted;
    } else {
        promoIndex_.insert(pfn, slot);
        ++promotionsStarted;
    }

    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        s.traceId = sink->nextAsyncId();
        sink->asyncBegin(tracePid(), spanName(is_demotion),
                         trace::Cat::Copy, s.traceId, now,
                         {{"pfn", static_cast<double>(pfn)},
                          {"cfn", static_cast<double>(cfn)}});
    } else {
        s.traceId = 0;
    }

    issueReads(slot);
    return true;
}

void
MigrationEngine::issueReads(int slot)
{
    Slot &s = slots_[slot];
    // Promotion reads the far tier (through the link); demotion reads
    // the near device.
    const PageNum page = s.isDemotion ? s.cfn : s.pfn;
    const MemSpace space = s.isDemotion ? MemSpace::OnPackage
                                        : MemSpace::OffPackage;
    const Category cat =
        s.isDemotion ? Category::Writeback : Category::Fill;

    while (s.readsInFlight < params_.maxReadsInFlight) {
        if (s.rVec == AllSubBlocks)
            return;
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(~s.rVec));
        const Addr addr = (static_cast<Addr>(page) << PageShift) +
                          static_cast<Addr>(idx) * BlockBytes;
        const std::uint64_t gen = s.generation;
        auto req = makeRequest(
            addr, false, cat, space, curTick(),
            [this, slot, gen, idx](Tick when) {
                onReadArrive(slot, gen, idx, when);
            });
        const bool ok =
            s.isDemotion ? near_.tryAccess(req, pump_.waiter())
                         : farLink_.tryAccess(req, pump_.waiter());
        if (!ok)
            return; // Parked until the source frees a slot.
        setBit(s.rVec, idx);
        ++s.readsInFlight;
        pump_.progress();
    }
}

void
MigrationEngine::onReadArrive(int slot, std::uint64_t gen,
                              std::uint32_t idx, Tick when)
{
    // Fault filter, identical to the PCSHR path: current-generation
    // responses may be swallowed (stuck slot), dropped, or delayed.
    // Lost responses hold readsInFlight — recovery is the copy
    // timeout's rewindLost().
    if (injector_) {
        const Slot &s = slots_[slot];
        if (s.valid && s.generation == gen) {
            if (s.stuck)
                return;
            Tick extra = 0;
            switch (injector_->onDramResponse(extra)) {
              case harden::FaultInjector::Response::Drop:
                return;
              case harden::FaultInjector::Response::Delay:
                schedule(extra, [this, slot, gen, idx]() {
                    deliverRead(slot, gen, idx, curTick());
                });
                return;
              case harden::FaultInjector::Response::Deliver:
                break;
            }
        }
    }
    deliverRead(slot, gen, idx, when);
}

void
MigrationEngine::deliverRead(int slot, std::uint64_t gen,
                             std::uint32_t idx, Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    pump_.touch();
    Slot &s = slots_[slot];
    if (!s.valid || s.generation != gen) {
        // Orphaned by an abort, a cancellation, or a slot recycle.
        ++staleReadsDropped;
        return;
    }
    panic_if(s.readsInFlight == 0, "read arrival without issue");
    --s.readsInFlight;
    NOMAD_CHECK(*this, bit(s.rVec, idx),
                "sub-block ", idx, " arrived without a read issued");
    NOMAD_CHECK(*this, !bit(s.bVec, idx),
                "sub-block ", idx, " arrived twice in one generation");
    setBit(s.bVec, idx);
    s.lastProgress = when;
    drainWrites(slot);
    maybeComplete(slot);
}

void
MigrationEngine::drainWrites(int slot)
{
    Slot &s = slots_[slot];
    if (!s.valid)
        return;
    // Promotion writes the near device; demotion writes the far tier
    // (posted through the link).
    const PageNum page = s.isDemotion ? s.pfn : s.cfn;
    const MemSpace space = s.isDemotion ? MemSpace::OffPackage
                                        : MemSpace::OnPackage;
    const Category cat =
        s.isDemotion ? Category::Writeback : Category::Fill;

    NOMAD_CHECK(*this, (s.wVec & ~s.bVec) == 0,
                "W vector not a subset of B for pfn ", s.pfn);
    std::uint64_t ready = s.bVec & ~s.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        const Addr addr = (static_cast<Addr>(page) << PageShift) +
                          static_cast<Addr>(idx) * BlockBytes;
        auto req = makeRequest(addr, true, cat, space, curTick());
        const bool ok =
            s.isDemotion ? farLink_.tryAccess(req, pump_.waiter())
                         : near_.tryAccess(req, pump_.waiter());
        if (!ok)
            return; // Parked until the destination frees a slot.
        setBit(s.wVec, idx);
        s.lastProgress = curTick();
        pump_.progress();
        ready &= ready - 1;
    }
}

void
MigrationEngine::maybeComplete(int slot)
{
    Slot &s = slots_[slot];
    if (!s.valid || !s.copyComplete())
        return;
    migrationLatency.sample(
        static_cast<double>(curTick() - s.acceptedAt));
    if (s.isDemotion)
        ++demotionsDone;
    else
        ++promotionsDone;
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), spanName(s.isDemotion),
                       trace::Cat::Copy, s.traceId, curTick(),
                       {{"latency", static_cast<double>(
                                        curTick() - s.acceptedAt)},
                        {"aborts",
                         static_cast<double>(s.abortRetries)}});
        s.traceId = 0;
    }
    DoneCallback done = std::move(s.onDone);
    releaseSlot(slot);
    if (done)
        done(curTick());
}

void
MigrationEngine::noteFarWrite(PageNum pfn)
{
    sim_.pokeClocked(wakeIdx_);
    const int *slot = promoIndex_.find(pfn);
    if (!slot)
        return;
    Slot &s = slots_[*slot];
    ++writeAborts;
    pump_.touch();
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncInstant(tracePid(), "migration_abort",
                           trace::Cat::Copy, s.traceId, curTick(),
                           {{"retries",
                             static_cast<double>(s.abortRetries)}});
    }
    if (s.abortRetries >= params_.maxAbortRetries) {
        // Write-hot page: stop fighting the writer. The page stays in
        // the far tier and the frontend releases the reserved frame.
        cancelMigration(*slot);
        return;
    }
    ++s.abortRetries;
    // Transactional abort: everything staged is stale (the writer just
    // mutated the source), so rewind fully and refetch from scratch.
    s.restart(curTick());
    issueReads(*slot);
}

void
MigrationEngine::noteNearWrite(PageNum cfn)
{
    sim_.pokeClocked(wakeIdx_);
    const int *slot = demoIndex_.find(cfn);
    if (!slot)
        return;
    // The frame is dirty again; the writeback streamed so far is
    // stale. Cancel outright — the frontend keeps the frame and a
    // later daemon pass retries the demotion.
    ++writeAborts;
    cancelMigration(*slot);
}

void
MigrationEngine::cancelMigration(int slot)
{
    Slot &s = slots_[slot];
    ++migrationsFailed;
    if (auto *sink = s.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), spanName(s.isDemotion),
                       trace::Cat::Copy, s.traceId, curTick(),
                       {{"cancelled", 1},
                        {"aborts",
                         static_cast<double>(s.abortRetries)}});
        s.traceId = 0;
    }
    FailCallback failed = std::move(s.onFail);
    releaseSlot(slot);
    if (failed)
        failed(curTick());
}

void
MigrationEngine::releaseSlot(int slot)
{
    pump_.touch();
    pump_.progress();
    Slot &s = slots_[slot];
    if (s.isDemotion)
        demoIndex_.erase(s.cfn);
    else
        promoIndex_.erase(s.pfn);
    s.valid = false;
    s.onDone = nullptr;
    s.onFail = nullptr;
    s.traceId = 0;
    s.retire(); // Orphan any reads still in flight.
    // A cancellation can release mid-copy: orphaned arrivals are
    // dropped by the generation check without touching this slot, so
    // the in-flight accounting must be zeroed here, not by them.
    s.readsInFlight = 0;
    s.rVec = s.bVec = s.wVec = s.localVec = 0;
    --activeSlots_;
}

void
MigrationEngine::tick()
{
    if (params_.copyTimeoutTicks > 0)
        checkCopyTimeouts();
    if (activeSlots_ == 0)
        return;
    const auto n = static_cast<std::uint32_t>(slots_.size());
    if (pump_.asleep()) {
        rrCursor_ = (rrCursor_ + 1) % n;
        return;
    }
    pump_.beginPass();
    for (std::uint32_t off = 0; off < n; ++off) {
        const std::uint32_t slot = (rrCursor_ + off) % n;
        if (!slots_[slot].valid)
            continue;
        issueReads(static_cast<int>(slot));
        drainWrites(static_cast<int>(slot));
        maybeComplete(static_cast<int>(slot));
    }
    rrCursor_ = (rrCursor_ + 1) % n;
    pump_.endPass();
}

int
MigrationEngine::findFreeSlot() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

void
MigrationEngine::checkCopyTimeouts()
{
    const Tick now = curTick();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &s = slots_[i];
        if (!s.valid || now - s.lastProgress <= params_.copyTimeoutTicks)
            continue;
        pump_.touch();
        // Same abort-and-refetch as the PCSHR copy timeout: orphan the
        // lost reads, rewind R to what actually landed, re-issue.
        s.rewindLost(now);
        ++copyRetries;
        if (auto *sink = s.traceId ? tracer() : nullptr) {
            sink->asyncInstant(tracePid(), "copy_retry",
                               trace::Cat::Copy, s.traceId, now,
                               {{"slot", static_cast<double>(i)}});
        }
        issueReads(static_cast<int>(i));
    }
}

void
MigrationEngine::checkDrained() const
{
    NOMAD_CHECK(*this, activeSlots_ == 0,
                "migration-slot leak: ", activeSlots_,
                " still active at drain");
    for (const auto &s : slots_) {
        NOMAD_CHECK(*this, !s.valid && s.readsInFlight == 0,
                    "migration of pfn ", s.pfn,
                    " not released at drain");
    }
}

void
MigrationEngine::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activeSlots", static_cast<double>(activeSlots_));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_[i];
        if (!s.valid)
            continue;
        snap.set(name_, "slot" + std::to_string(i),
                 detail::concat(
                     s.isDemotion ? "demote" : "promote",
                     " pfn=", s.pfn, " cfn=", s.cfn,
                     " r=", __builtin_popcountll(s.rVec),
                     " b=", __builtin_popcountll(s.bVec),
                     " w=", __builtin_popcountll(s.wVec),
                     " inflight=", s.readsInFlight,
                     " aborts=", s.abortRetries,
                     " stuck=", s.stuck ? 1 : 0,
                     " idleFor=", curTick() - s.lastProgress));
    }
}

} // namespace nomad
