#include "tiering_frontend.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "vm/heat.hh"

namespace nomad
{

TieringFrontEnd::TieringFrontEnd(Simulation &sim,
                                 const std::string &name,
                                 const TieringParams &params,
                                 PageTable &page_table,
                                 MigrationEngine &engine)
    : SimObject(sim, name),
      promotionsCommitted(name + ".promotionsCommitted",
                          "pages promoted into the near tier"),
      promotionsDeclinedNoFrame(
          name + ".promotionsDeclinedNoFrame",
          "promotions declined: no free near frame"),
      promotionsDeclinedEngine(
          name + ".promotionsDeclinedEngine",
          "promotions declined: migration engine saturated"),
      promotionsFailed(name + ".promotionsFailed",
                       "promotions cancelled by the write-abort budget"),
      demotionsClean(name + ".demotionsClean",
                     "metadata-only demotions (shadow copy reused)"),
      demotionsDirty(name + ".demotionsDirty",
                     "demotions that paid a writeback"),
      demotionAborts(name + ".demotionAborts",
                     "demotion writebacks cancelled by a write"),
      demotionsSkippedHot(name + ".demotionsSkippedHot",
                          "daemon skips: frame still hot"),
      demotionsSkippedTlb(name + ".demotionsSkippedTlb",
                          "daemon skips: frame TLB-resident"),
      tlbShootdowns(name + ".tlbShootdowns",
                    "TLB invalidations issued on demotion"),
      sramFlushes(name + ".sramFlushes",
                  "SRAM lines flushed on migration commit"),
      daemonPasses(name + ".daemonPasses",
                   "demotion daemon scan passes"),
      params_(params), pageTable_(page_table), engine_(engine)
{
    fatal_if(params.nearFrames == 0, name,
             ": near tier needs at least one frame");
    frames_.resize(params.nearFrames);
    for (PageNum cfn = 0; cfn < params.nearFrames; ++cfn)
        freeQ_.push_back(cfn);
    watermark_ = params.demotionWatermark != 0
                     ? params.demotionWatermark
                     : std::max<std::uint64_t>(8, params.nearFrames / 8);
    if (watermark_ > params.nearFrames)
        watermark_ = params.nearFrames;

    auto &reg = sim.statistics();
    reg.add(&promotionsCommitted);
    reg.add(&promotionsDeclinedNoFrame);
    reg.add(&promotionsDeclinedEngine);
    reg.add(&promotionsFailed);
    reg.add(&demotionsClean);
    reg.add(&demotionsDirty);
    reg.add(&demotionAborts);
    reg.add(&demotionsSkippedHot);
    reg.add(&demotionsSkippedTlb);
    reg.add(&tlbShootdowns);
    reg.add(&sramFlushes);
    reg.add(&daemonPasses);
}

Pte *
TieringFrontEnd::firstPte(PageNum pfn)
{
    const auto &vpns = pageTable_.reverseMap(pfn);
    if (vpns.empty())
        return nullptr;
    return pageTable_.find(vpns.front());
}

std::uint32_t
TieringFrontEnd::currentHeat(const Pte &pte) const
{
    return heat::current(pte, curTick(), params_.heatEpochTicks,
                         params_.heatDecayShift);
}

std::uint32_t
TieringFrontEnd::bumpHeat(Pte &pte)
{
    // Lazy Banshee-style decay, shared with the Banshee scheme
    // (vm/heat.hh): deterministic, no background sweep.
    return heat::bump(pte, curTick(), params_.heatEpochTicks,
                      params_.heatDecayShift);
}

void
TieringFrontEnd::onFarAccess(PageNum pfn, bool is_write)
{
    if (is_write)
        engine_.noteFarWrite(pfn);
    Pte *pte = firstPte(pfn);
    if (!pte)
        return;
    const std::uint32_t heat = bumpHeat(*pte);
    if (heat < params_.promoteThreshold || !pte->isDcTagMiss())
        return;
    if (engine_.promotionInFlight(pfn))
        return;
    tryPromote(pfn);
}

void
TieringFrontEnd::tryPromote(PageNum pfn)
{
    if (freeQ_.empty()) {
        ++promotionsDeclinedNoFrame;
        wakeDaemon(params_.daemonWakeLatency);
        return;
    }
    const PageNum cfn = freeQ_.front();
    NearFrame &f = frames_[cfn];
    panic_if(f.valid || f.reserved, "free ring handed out a busy frame");
    f.reserved = true;
    const bool ok = engine_.startPromotion(
        pfn, cfn,
        [this, pfn, cfn](Tick) { commitPromotion(pfn, cfn); },
        [this, pfn, cfn](Tick) { failPromotion(pfn, cfn); });
    if (!ok) {
        f.reserved = false;
        ++promotionsDeclinedEngine;
        return;
    }
    freeQ_.pop_front();
    if (belowWatermark())
        wakeDaemon(params_.daemonWakeLatency);
}

void
TieringFrontEnd::commitPromotion(PageNum pfn, PageNum cfn)
{
    NearFrame &f = frames_[cfn];
    NOMAD_CHECK(*this, f.reserved && !f.valid,
                "promotion commit into unreserved frame ", cfn);
    f.reserved = false;
    f.valid = true;
    f.dirty = false;
    f.pfn = pfn;
    // The translation may be TLB-resident (entries reference the PTE
    // directly, so the repoint is visible immediately); carry its
    // residency over to the frame's directory.
    if (auto it = farDir_.find(pfn); it != farDir_.end()) {
        f.tlbDirectory = it->second;
        farDir_.erase(it);
    }
    for (Pte *pte : pageTable_.reversePtes(pfn)) {
        pte->cached = true;
        pte->frame = cfn;
    }
    pageTable_.remapped();
    pageTable_.ppd(pfn).cached = true;
    // Stale SRAM lines still keyed by the far address would alias the
    // now-near page; flush them, as a real migration invalidates.
    if (flushHook_) {
        sramFlushes += static_cast<double>(
            flushHook_(MemSpace::OffPackage,
                       static_cast<Addr>(pfn) << PageShift, PageBytes));
    }
    ++promotionsCommitted;
}

void
TieringFrontEnd::failPromotion(PageNum pfn, PageNum cfn)
{
    NearFrame &f = frames_[cfn];
    NOMAD_CHECK(*this, f.reserved && !f.valid,
                "promotion failure on unreserved frame ", cfn);
    f = NearFrame{};
    freeQ_.push_back(cfn);
    ++promotionsFailed;
    // Write-hot page: zero its heat so it re-earns promotion instead
    // of immediately churning the engine again.
    if (Pte *pte = firstPte(pfn))
        heat::reset(*pte, curTick(), params_.heatEpochTicks);
}

void
TieringFrontEnd::noteNearWrite(PageNum cfn)
{
    if (cfn >= frames_.size() || !frames_[cfn].valid)
        return; // Stale writeback to a reclaimed frame.
    frames_[cfn].dirty = true;
    if (frames_[cfn].demoting)
        engine_.noteNearWrite(cfn);
}

void
TieringFrontEnd::noteStore(Pte *pte)
{
    if (pte->cached) {
        noteNearWrite(pte->frame);
    } else {
        engine_.noteFarWrite(pte->frame);
    }
}

void
TieringFrontEnd::tlbInserted(int core, const Pte &pte)
{
    if (core < 0 || core >= 64)
        return;
    const std::uint64_t bit = 1ULL << core;
    if (pte.cached)
        frames_[pte.frame].tlbDirectory |= bit;
    else
        farDir_[pte.frame] |= bit;
}

void
TieringFrontEnd::tlbEvicted(int core, const Pte &pte)
{
    if (core < 0 || core >= 64)
        return;
    const std::uint64_t bit = 1ULL << core;
    if (pte.cached) {
        frames_[pte.frame].tlbDirectory &= ~bit;
    } else if (auto it = farDir_.find(pte.frame); it != farDir_.end()) {
        it->second &= ~bit;
        if (it->second == 0)
            farDir_.erase(it);
    }
}

void
TieringFrontEnd::wakeDaemon(Tick delay)
{
    if (daemonActive_)
        return;
    daemonActive_ = true;
    schedule(delay, [this]() { daemonPass(); });
}

void
TieringFrontEnd::daemonPass()
{
    daemonActive_ = false;
    ++daemonPasses;
    const auto n = static_cast<PageNum>(frames_.size());
    std::uint32_t reclaimed = 0;
    std::uint32_t started = 0;
    Tick cost = 0;
    for (PageNum scanned = 0;
         scanned < n && reclaimed + started < params_.demotionBatch &&
         belowWatermark();
         ++scanned) {
        const PageNum cfn = clockHand_;
        clockHand_ = (clockHand_ + 1) % n;
        NearFrame &f = frames_[cfn];
        if (!f.valid || f.reserved || f.demoting)
            continue;
        Pte *pte = firstPte(f.pfn);
        if (pte && currentHeat(*pte) >= params_.promoteThreshold) {
            // Still hot: age it so a cooling page becomes reclaimable
            // on a later pass instead of pinning the frame forever.
            pte->heat >>= 1;
            ++demotionsSkippedHot;
            continue;
        }
        if (f.tlbDirectory != 0) {
            if (params_.tlbShootdownAvoidance) {
                ++demotionsSkippedTlb;
                continue;
            }
            shootdown(f);
            cost += params_.shootdownCycles;
        }
        cost += params_.demotePerFrameCycles;
        if (!f.dirty) {
            // The non-exclusive payoff: the far shadow copy is still
            // valid, so reclaiming a clean frame moves no data.
            commitDemotion(cfn);
            ++demotionsClean;
            ++reclaimed;
        } else {
            f.demoting = true;
            const bool ok = engine_.startDemotion(
                cfn, f.pfn,
                [this, cfn](Tick) { finishDirtyDemotion(cfn); },
                [this, cfn](Tick) { cancelDemotion(cfn); });
            if (!ok) {
                f.demoting = false;
                break; // Engine saturated; end the pass.
            }
            ++started;
        }
    }
    // Re-arm only while a pass makes headway: a pass that frees and
    // starts nothing would re-wake forever (everything hot, resident,
    // or in flight), and the next promotion attempt re-wakes us anyway.
    if ((reclaimed > 0 || started > 0) && belowWatermark())
        wakeDaemon(params_.daemonWakeLatency + cost);
}

void
TieringFrontEnd::shootdown(NearFrame &frame)
{
    const std::uint64_t dir = frame.tlbDirectory;
    for (int core = 0; core < 64; ++core) {
        if (((dir >> core) & 1ULL) == 0)
            continue;
        for (PageNum vpn : pageTable_.reverseMap(frame.pfn)) {
            if (shootdownHook_)
                shootdownHook_(core, vpn);
            ++tlbShootdowns;
        }
    }
    frame.tlbDirectory = 0;
}

void
TieringFrontEnd::commitDemotion(PageNum cfn)
{
    NearFrame &f = frames_[cfn];
    const PageNum pfn = f.pfn;
    for (Pte *pte : pageTable_.reversePtes(pfn)) {
        pte->cached = false;
        pte->frame = pfn;
        // Anti-ping-pong: a demoted page re-earns its promotion.
        heat::reset(*pte, curTick(), params_.heatEpochTicks);
    }
    pageTable_.remapped();
    pageTable_.ppd(pfn).cached = false;
    if (flushHook_) {
        sramFlushes += static_cast<double>(
            flushHook_(MemSpace::OnPackage,
                       static_cast<Addr>(cfn) << PageShift, PageBytes));
    }
    if (f.tlbDirectory != 0)
        farDir_[pfn] = f.tlbDirectory;
    f = NearFrame{};
    freeQ_.push_back(cfn);
}

void
TieringFrontEnd::finishDirtyDemotion(PageNum cfn)
{
    NearFrame &f = frames_[cfn];
    NOMAD_CHECK(*this, f.valid && f.demoting,
                "writeback completion for idle frame ", cfn);
    f.demoting = false;
    f.dirty = false; // The far copy just caught up.
    ++demotionsDirty;
    commitDemotion(cfn);
}

void
TieringFrontEnd::cancelDemotion(PageNum cfn)
{
    NearFrame &f = frames_[cfn];
    NOMAD_CHECK(*this, f.valid && f.demoting,
                "writeback cancellation for idle frame ", cfn);
    f.demoting = false;
    ++demotionAborts; // Frame stays resident (and dirty).
}

void
TieringFrontEnd::checkDrained() const
{
    engine_.checkDrained();
    std::uint64_t valid = 0;
    for (const auto &f : frames_) {
        NOMAD_CHECK(*this, !f.reserved,
                    "frame reserved by a dead promotion at drain");
        NOMAD_CHECK(*this, !f.demoting,
                    "frame demoting with an idle engine at drain");
        valid += f.valid ? 1 : 0;
    }
    NOMAD_CHECK(*this, valid + freeQ_.size() == frames_.size(),
                "near-frame leak: ", valid, " valid + ",
                freeQ_.size(), " free != ", frames_.size(),
                " frames at drain");
}

void
TieringFrontEnd::snapshot(harden::Snapshot &snap) const
{
    engine_.snapshot(snap);
    std::uint64_t valid = 0;
    std::uint64_t reserved = 0;
    std::uint64_t dirty = 0;
    std::uint64_t demoting = 0;
    for (const auto &f : frames_) {
        valid += f.valid ? 1 : 0;
        reserved += f.reserved ? 1 : 0;
        dirty += f.valid && f.dirty ? 1 : 0;
        demoting += f.demoting ? 1 : 0;
    }
    snap.set(name_, "frames",
             detail::concat("total=", frames_.size(), " valid=", valid,
                            " free=", freeQ_.size(),
                            " reserved=", reserved, " dirty=", dirty,
                            " demoting=", demoting,
                            " watermark=", watermark_));
    snap.set(name_, "daemonActive",
             static_cast<double>(daemonActive_ ? 1 : 0));
}

} // namespace nomad
