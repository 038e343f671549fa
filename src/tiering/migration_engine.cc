#include "migration_engine.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/trace.hh"

namespace nomad
{

MigrationEngine::MigrationEngine(Simulation &sim, const std::string &name,
                                 const MigrationEngineParams &params,
                                 DramDevice &near, MemPort &far_link)
    : CopyPump(sim, name, params.numSlots),
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

    // The retry stat only exists on hardened runs so the default
    // stats-JSON stream stays byte-identical.
    if (sim.harden())
        reg.add(&copyRetries);

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
    Slot &s = slots_[slot];
    claimSlot(s, pfn, cfn);
    s.isDemotion = is_demotion;
    s.abortRetries = 0;
    s.onDone = std::move(done);
    s.onFail = std::move(failed);
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
                         trace::Cat::Copy, s.traceId, curTick(),
                         {{"pfn", static_cast<double>(pfn)},
                          {"cfn", static_cast<double>(cfn)}});
    }

    issueReads(slot);
    return true;
}

void
MigrationEngine::onReadArrive(int slot, std::uint64_t gen,
                              std::uint32_t idx, Tick when)
{
    arrive(slot, gen, idx, when);
}

bool
MigrationEngine::admitArrival(Slot &s, std::uint32_t idx)
{
    NOMAD_CHECK(*this, !bit(s.bVec, idx),
                "sub-block ", idx, " arrived twice in one generation");
    return true;
}

void
MigrationEngine::completeCopy(int slot)
{
    Slot &s = slots_[slot];
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
    }
    FailCallback failed = std::move(s.onFail);
    releaseSlot(slot);
    if (failed)
        failed(curTick());
}

void
MigrationEngine::releaseSlot(int slot)
{
    Slot &s = slots_[slot];
    if (s.isDemotion)
        demoIndex_.erase(s.cfn);
    else
        promoIndex_.erase(s.pfn);
    s.onDone = nullptr;
    s.onFail = nullptr;
    freeSlot(s);
}

void
MigrationEngine::tick()
{
    pumpSlots();
}

void
MigrationEngine::checkDrained() const
{
    NOMAD_CHECK(*this, active_ == 0,
                "migration-slot leak: ", active_,
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
    snap.set(name_, "activeSlots", static_cast<double>(active_));
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
