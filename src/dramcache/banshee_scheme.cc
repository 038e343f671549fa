#include "banshee_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/stat_sampler.hh"
#include "system/system.hh"
#include "vm/heat.hh"

namespace nomad
{

BansheeScheme::BansheeScheme(Simulation &sim, const std::string &name,
                             const BansheeParams &params,
                             DramDevice &off_package,
                             DramDevice &on_package,
                             PageTable &page_table)
    : DramCacheScheme(sim, name, off_package, &on_package, page_table),
      fillsCommitted(name + ".fillsCommitted",
                     "pages filled into the cache"),
      fillsAborted(name + ".fillsAborted",
                   "fills cancelled by a racing write"),
      fillsThrottled(name + ".fillsThrottled",
                     "fills deferred by the bandwidth budget"),
      fillsDeclinedNoVictim(name + ".fillsDeclinedNoVictim",
                            "fills declined: no frame and no colder victim"),
      evictionsClean(name + ".evictionsClean",
                     "metadata-only frame reclaims"),
      evictionsDirty(name + ".evictionsDirty",
                     "reclaims that paid a page writeback"),
      evictionAborts(name + ".evictionAborts",
                     "eviction writebacks raced by a write"),
      tlbShootdowns(name + ".tlbShootdowns",
                    "TLB invalidations issued on eviction"),
      sramFlushes(name + ".sramFlushes",
                  "SRAM lines flushed on fill/eviction commit"),
      params_(params)
{
    fatal_if(params.numFrames == 0, name,
             ": cache needs at least one frame");
    fatal_if(params.fillWindowTicks == 0, name,
             ": fill window must be nonzero");
    backEnd_ = std::make_unique<NomadBackEnd>(
        sim, name + ".backend", params.backEnd, on_package,
        off_package);
    frames_.resize(params.numFrames);
    for (PageNum cfn = 0; cfn < params.numFrames; ++cfn)
        freeQ_.push_back(cfn);

    auto &reg = sim.statistics();
    reg.add(&fillsCommitted);
    reg.add(&fillsAborted);
    reg.add(&fillsThrottled);
    reg.add(&fillsDeclinedNoVictim);
    reg.add(&evictionsClean);
    reg.add(&evictionsDirty);
    reg.add(&evictionAborts);
    reg.add(&tlbShootdowns);
    reg.add(&sramFlushes);
}

Pte *
BansheeScheme::firstPte(PageNum pfn)
{
    const auto &vpns = pageTable_.reverseMap(pfn);
    if (vpns.empty())
        return nullptr;
    return pageTable_.find(vpns.front());
}

bool
BansheeScheme::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    trackDemandRead(req);
    if (req->space == MemSpace::OnPackage) {
        // A resident page: the PTE already points at the frame, so a
        // hit is one on-package access with no tag traffic — but the
        // back-end must verify no copy holds the frame (it never does:
        // PTEs repoint only at commit; keep the check as an invariant).
        if (!onPackage_->tryAccess(req, waiter))
            return false;
        if (req->isWrite)
            noteNearWrite(pageOf(req->addr));
        return true;
    }
    if (!offPackage_.tryAccess(req, waiter))
        return false;
    // Frequency sampling happens only once the device accepts, so
    // refused-and-retried accesses are not double-counted.
    if (req->category == Category::Demand)
        onFarAccess(pageOf(req->addr), req->isWrite);
    return true;
}

void
BansheeScheme::onFarAccess(PageNum pfn, bool is_write)
{
    if (is_write)
        noteFarWrite(pfn);
    Pte *pte = firstPte(pfn);
    if (!pte)
        return;
    const std::uint32_t h = heat::bump(
        *pte, curTick(), params_.heatEpochTicks, params_.heatDecayShift);
    if (h < params_.cacheThreshold || !pte->isDcTagMiss())
        return;
    if (fillsInFlight_.count(pfn) != 0)
        return;
    tryFill(pfn, h);
}

void
BansheeScheme::notifyStore(Pte *pte)
{
    pte->dirty = true;
    if (pte->cached)
        noteNearWrite(pte->frame);
    else
        noteFarWrite(pte->frame);
}

void
BansheeScheme::noteNearWrite(PageNum cfn)
{
    if (cfn >= frames_.size() || !frames_[cfn].valid)
        return; // Stale writeback to a reclaimed frame.
    frames_[cfn].dirty = true;
}

void
BansheeScheme::noteFarWrite(PageNum pfn)
{
    // The fill's source page changed under the copy: the cached image
    // will be stale, so the fill unwinds instead of committing.
    if (auto it = fillsInFlight_.find(pfn); it != fillsInFlight_.end())
        it->second.wroteDuring = true;
}

bool
BansheeScheme::overFillBudget()
{
    const std::uint64_t window = curTick() / params_.fillWindowTicks;
    if (window != curWindow_) {
        curWindow_ = window;
        windowBytesUsed_ = 0;
    }
    return windowBytesUsed_ + PageBytes > params_.fillBudgetBytes;
}

void
BansheeScheme::tryFill(PageNum pfn, std::uint32_t heat)
{
    if (overFillBudget()) {
        ++fillsThrottled;
        return;
    }
    PageNum cfn = InvalidPage;
    if (!acquireFrame(heat, cfn))
        return;
    Frame &f = frames_[cfn];
    panic_if(f.valid || f.filling || f.evicting,
             "fill into a busy frame");
    f.filling = true;
    f.pfn = pfn;
    fillsInFlight_.emplace(pfn, FillCtx{cfn, false});
    windowBytesUsed_ += PageBytes;
    backEnd_->sendCacheFill(
        cfn, pfn, /*pri_sub_block=*/0, /*accepted=*/nullptr,
        [this, pfn](Tick) { finishFill(pfn); });
}

bool
BansheeScheme::acquireFrame(std::uint32_t incoming_heat,
                            PageNum &cfn_out)
{
    if (!freeQ_.empty()) {
        cfn_out = freeQ_.front();
        freeQ_.pop_front();
        return true;
    }
    // Frequency-based replacement: scan a bounded window of frames
    // for a victim strictly colder than the incoming page.
    const auto n = static_cast<PageNum>(frames_.size());
    for (std::uint32_t scanned = 0;
         scanned < params_.replaceScanLimit && scanned < n; ++scanned) {
        const PageNum cfn = clockHand_;
        clockHand_ = (clockHand_ + 1) % n;
        Frame &f = frames_[cfn];
        if (!f.valid || f.filling || f.evicting)
            continue;
        Pte *victim_pte = firstPte(f.pfn);
        const std::uint32_t victim_heat =
            victim_pte ? heat::current(*victim_pte, curTick(),
                                       params_.heatEpochTicks,
                                       params_.heatDecayShift)
                       : 0;
        if (victim_heat >= incoming_heat)
            continue;
        if (f.tlbDirectory != 0 && params_.tlbShootdownAvoidance)
            continue;
        if (f.dirty) {
            // Start the writeback and decline this fill; the frame
            // frees once the page lands off-package.
            f.evicting = true;
            f.dirty = false; // Re-set by a write racing the writeback.
            ++evictingFrames_;
            backEnd_->sendWriteback(
                cfn, f.pfn, /*accepted=*/nullptr,
                [this, cfn](Tick) { finishEviction(cfn); });
            break;
        }
        // The clean reclaim: repoint the PTEs and hand the frame over
        // without moving any data (the far copy is still valid).
        reclaimFrame(cfn);
        ++evictionsClean;
        cfn_out = cfn;
        return true;
    }
    ++fillsDeclinedNoVictim;
    return false;
}

void
BansheeScheme::shootdown(Frame &frame)
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
BansheeScheme::reclaimFrame(PageNum cfn)
{
    Frame &f = frames_[cfn];
    const PageNum pfn = f.pfn;
    if (f.tlbDirectory != 0)
        shootdown(f);
    for (Pte *pte : pageTable_.reversePtes(pfn)) {
        pte->cached = false;
        pte->frame = pfn;
    }
    pageTable_.remapped();
    pageTable_.ppd(pfn).cached = false;
    // Stale SRAM lines keyed by the frame address would alias the
    // next occupant; flush them, as a real remap invalidates.
    if (flushHook_) {
        sramFlushes += static_cast<double>(
            flushHook_(MemSpace::OnPackage,
                       static_cast<Addr>(cfn) << PageShift, PageBytes));
    }
    f = Frame{};
}

void
BansheeScheme::finishEviction(PageNum cfn)
{
    Frame &f = frames_[cfn];
    NOMAD_CHECK(*this, f.valid && f.evicting,
                "writeback completion for idle frame ", cfn);
    f.evicting = false;
    --evictingFrames_;
    if (f.dirty) {
        ++evictionAborts; // Frame stays resident (and dirty).
        return;
    }
    ++evictionsDirty;
    reclaimFrame(cfn);
    freeQ_.push_back(cfn);
}

void
BansheeScheme::finishFill(PageNum pfn)
{
    const auto it = fillsInFlight_.find(pfn);
    NOMAD_CHECK(*this, it != fillsInFlight_.end(),
                "fill completion for unknown page ", pfn);
    const FillCtx ctx = it->second;
    fillsInFlight_.erase(it);
    Frame &f = frames_[ctx.cfn];
    NOMAD_CHECK(*this, f.filling && !f.valid,
                "fill completion into unclaimed frame ", ctx.cfn);
    f.filling = false;
    if (ctx.wroteDuring) {
        f = Frame{};
        freeQ_.push_back(ctx.cfn);
        ++fillsAborted;
        return;
    }
    f.valid = true;
    f.dirty = false;
    f.pfn = pfn;
    // Carry TLB residency of the far translation over to the frame
    // (entries reference the PTE directly, so the repoint below is
    // visible immediately).
    if (auto dir = farDir_.find(pfn); dir != farDir_.end()) {
        f.tlbDirectory = dir->second;
        farDir_.erase(dir);
    }
    for (Pte *pte : pageTable_.reversePtes(pfn)) {
        pte->cached = true;
        pte->frame = ctx.cfn;
    }
    pageTable_.remapped();
    pageTable_.ppd(pfn).cached = true;
    if (flushHook_) {
        sramFlushes += static_cast<double>(
            flushHook_(MemSpace::OffPackage,
                       static_cast<Addr>(pfn) << PageShift, PageBytes));
    }
    ++fillsCommitted;
}

void
BansheeScheme::tlbInserted(int core, PageNum vpn, const Pte &pte)
{
    (void)vpn;
    if (core < 0 || core >= 64)
        return;
    const std::uint64_t bit = 1ULL << core;
    if (pte.cached)
        frames_[pte.frame].tlbDirectory |= bit;
    else
        farDir_[pte.frame] |= bit;
}

void
BansheeScheme::tlbEvicted(int core, PageNum vpn, const Pte &pte)
{
    (void)vpn;
    if (core < 0 || core >= 64)
        return;
    const std::uint64_t bit = 1ULL << core;
    if (pte.cached) {
        frames_[pte.frame].tlbDirectory &= ~bit;
    } else if (auto it = farDir_.find(pte.frame);
               it != farDir_.end()) {
        it->second &= ~bit;
        if (it->second == 0)
            farDir_.erase(it);
    }
}

void
BansheeScheme::checkDrained() const
{
    backEnd_->checkDrained();
    NOMAD_CHECK(*this, fillsInFlight_.empty(),
                "fill leak: ", fillsInFlight_.size(),
                " pages still in flight at drain");
    std::uint64_t valid = 0;
    for (const auto &f : frames_) {
        NOMAD_CHECK(*this, !f.filling,
                    "frame claimed by a dead fill at drain");
        NOMAD_CHECK(*this, !f.evicting,
                    "frame evicting with an idle engine at drain");
        valid += f.valid ? 1 : 0;
    }
    NOMAD_CHECK(*this, valid + freeQ_.size() == frames_.size(),
                "frame leak: ", valid, " valid + ", freeQ_.size(),
                " free != ", frames_.size(), " frames at drain");
}

void
BansheeScheme::snapshot(harden::Snapshot &snap) const
{
    backEnd_->snapshot(snap);
    std::uint64_t valid = 0;
    std::uint64_t filling = 0;
    std::uint64_t dirty = 0;
    std::uint64_t evicting = 0;
    for (const auto &f : frames_) {
        valid += f.valid ? 1 : 0;
        filling += f.filling ? 1 : 0;
        dirty += f.valid && f.dirty ? 1 : 0;
        evicting += f.evicting ? 1 : 0;
    }
    snap.set(name_, "frames",
             detail::concat("total=", frames_.size(), " valid=", valid,
                            " free=", freeQ_.size(),
                            " filling=", filling, " dirty=", dirty,
                            " evicting=", evicting));
    snap.set(name_, "fillsInFlight",
             static_cast<double>(fillsInFlight_.size()));
}

void
BansheeScheme::collectStats(SystemResults &r) const
{
    r.fills = static_cast<std::uint64_t>(fillsCommitted.value());
    r.writebacks = static_cast<std::uint64_t>(evictionsDirty.value());
    if (r.seconds > 0) {
        const double bytes =
            (fillsCommitted.value() + evictionsDirty.value()) *
            PageBytes;
        r.rmhbGBs = bytes / BytesPerGB / r.seconds;
    }
    r.fillsThrottled =
        static_cast<std::uint64_t>(fillsThrottled.value());
}

void
BansheeScheme::samplerProbes(StatSampler &sampler)
{
    sampler.addProbe(name_ + ".freeFrames", [this]() {
        return static_cast<double>(freeQ_.size());
    });
    sampler.addStat(&fillsCommitted);
    sampler.addStat(&fillsThrottled);
}

void
registerBansheeScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Banshee;
    entry.name = schemeKindName(SchemeKind::Banshee);
    entry.description =
        "SW/HW page cache with frequency-based replacement and "
        "bandwidth-aware fills";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        const SystemConfig &cfg = ctx.config;
        BansheeParams p = cfg.banshee;
        if (p.numFrames == 0)
            p.numFrames = cfg.dcFrames;
        p.backEnd.copyTimeoutTicks = ctx.copyTimeoutTicks;
        return std::make_unique<BansheeScheme>(ctx.sim, "banshee", p,
                                               ctx.offPackage,
                                               ctx.onPackage,
                                               ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        if (cfg.banshee.cacheThreshold == 0)
            reject("banshee.cacheThreshold must be >= 1; a zero "
                   "threshold would cache every page on first touch");
        if (cfg.banshee.heatEpochTicks == 0)
            reject("banshee.heatEpochTicks must be >= 1");
        if (cfg.banshee.fillWindowTicks == 0)
            reject("banshee.fillWindowTicks must be >= 1");
        if (cfg.banshee.fillBudgetBytes < PageBytes)
            reject("banshee.fillBudgetBytes must admit at least one "
                   "page per window");
        if (cfg.banshee.replaceScanLimit == 0)
            reject("banshee.replaceScanLimit must be >= 1");
        if (cfg.banshee.backEnd.numPcshrs == 0)
            reject("banshee.backEnd.numPcshrs must be >= 1");
        if (cfg.banshee.backEnd.maxReadsInFlight == 0)
            reject("banshee.backEnd.maxReadsInFlight must be >= 1");
    };
    entry.requiredOnPackageFrames = [](const SystemConfig &cfg) {
        return std::max<std::uint64_t>(cfg.dcFrames,
                                       cfg.banshee.numFrames);
    };
    entry.extraResults = {
        {"fills_throttled",
         [](const SystemResults &r) {
             return static_cast<double>(r.fillsThrottled);
         }},
    };
    reg.add(std::move(entry));
}

} // namespace nomad
