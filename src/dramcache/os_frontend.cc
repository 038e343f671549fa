#include "os_frontend.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace nomad
{

OsFrontEnd::OsFrontEnd(Simulation &sim, const std::string &name,
                       const OsFrontEndParams &params,
                       PageTable &page_table, DataBackend &backend)
    : SimObject(sim, name),
      tagMisses(name + ".tagMisses", "DC tag misses handled"),
      tagMgmtLatency(name + ".tagMgmtLatency",
                     "handler arrival to thread resume-eligible (ticks)"),
      evictions(name + ".evictions", "cache frames reclaimed"),
      evictionsSkippedTlb(name + ".evictionsSkippedTlb",
                          "victims skipped for TLB shootdown avoidance"),
      tlbShootdowns(name + ".tlbShootdowns",
                    "TLB shootdowns performed (avoidance disabled)"),
      writebacksIssued(name + ".writebacksIssued",
                       "dirty frames written back on eviction"),
      allocStalls(name + ".allocStalls",
                  "handler retries with zero free frames"),
      daemonPasses(name + ".daemonPasses",
                   "background eviction daemon invocations"),
      sharedPtesUpdated(name + ".sharedPtesUpdated",
                        "extra PTEs updated for shared pages"),
      cachingBypassed(name + ".cachingBypassed",
                      "tag misses declined by the caching policy"),
      params_(params), pageTable_(page_table), backend_(backend),
      cpds_(params.numFrames), freeFrames_(params.numFrames),
      freeCounterName_(name + ".freeFrames")
{
    fatal_if(params.numFrames == 0, name, ": zero cache frames");
    fatal_if(params.evictionBatch == 0, name, ": zero eviction batch");
    fatal_if((params.evictionBatch & (params.evictionBatch - 1)) != 0,
             name, ": eviction batch must be a power of two (Alg 2)");
    if (params_.evictionThreshold >= params_.numFrames) {
        // A threshold at or above capacity would keep the daemon
        // permanently awake; clamp to half the frames.
        params_.evictionThreshold = params_.numFrames / 2;
    }

    auto &reg = sim.statistics();
    reg.add(&tagMisses);
    reg.add(&tagMgmtLatency);
    reg.add(&evictions);
    reg.add(&evictionsSkippedTlb);
    reg.add(&tlbShootdowns);
    reg.add(&writebacksIssued);
    reg.add(&allocStalls);
    reg.add(&daemonPasses);
    reg.add(&sharedPtesUpdated);
    reg.add(&cachingBypassed);
}

void
OsFrontEnd::lockMutex(std::function<void(Tick)> critical)
{
    if (!params_.globalMutex) {
        // Per-PTE locking (TDC): handlers run concurrently.
        critical(curTick());
        return;
    }
    if (!mutexHeld_) {
        mutexHeld_ = true;
        critical(curTick());
        return;
    }
    mutexQ_.push_back(std::move(critical));
}

void
OsFrontEnd::unlockMutex()
{
    if (!params_.globalMutex)
        return;
    panic_if(!mutexHeld_, "unlock of a free mutex");
    if (mutexQ_.empty()) {
        mutexHeld_ = false;
        return;
    }
    auto next = std::move(mutexQ_.front());
    mutexQ_.pop_front();
    // Hand-off on the next tick; the mutex stays held.
    schedule(1, [next = std::move(next), this]() { next(curTick()); });
}

void
OsFrontEnd::handleTagMiss(int core, PageNum vpn, Pte *pte,
                          std::uint32_t pri_sub_block, WalkDone done)
{
    if (cachingPolicy_ && !cachingPolicy_(vpn, *pte)) {
        // Selective caching declined this page for now; it remains an
        // off-package access (equivalent to a transiently NC page).
        ++cachingBypassed;
        done(curTick());
        return;
    }
    ++tagMisses;
    const Tick arrival = curTick();
    lockMutex([this, core, vpn, pte, pri_sub_block,
               done = std::move(done), arrival](Tick acquired) mutable {
        allocateFrame(core, vpn, pte, pri_sub_block, std::move(done),
                      acquired, arrival);
    });
}

void
OsFrontEnd::allocateFrame(int core, PageNum vpn, Pte *pte,
                          std::uint32_t pri_sub_block, WalkDone done,
                          Tick acquired, Tick arrival)
{
    if (freeFrames_ == 0) {
        // Direct-reclaim pressure: release the lock, let the daemon
        // work, and retry shortly.
        ++allocStalls;
        if (auto *sink = tracer();
            sink && sink->enabled(trace::Cat::Sched)) {
            sink->instant(tracePid(), name(), "alloc_stall",
                          trace::Cat::Sched, curTick(),
                          {{"vpn", static_cast<double>(vpn)}});
        }
        unlockMutex();
        wakeDaemon();
        schedule(params_.daemonWakeLatency + 1,
                 [this, core, vpn, pte, pri_sub_block,
                  done = std::move(done), arrival]() mutable {
                     lockMutex([this, core, vpn, pte, pri_sub_block,
                                done = std::move(done),
                                arrival](Tick acq) mutable {
                         allocateFrame(core, vpn, pte, pri_sub_block,
                                       std::move(done), acq, arrival);
                     });
                 });
        return;
    }

    // Algorithm 1 lines 2-5: probe the head for a free cache frame
    // (frames left valid by TLB-shootdown avoidance are skipped).
    while (cpds_[head_].valid)
        head_ = (head_ + 1) % params_.numFrames;
    const PageNum cfn = head_;
    head_ = (head_ + 1) % params_.numFrames;
    --freeFrames_;
    const PageNum pfn = pte->frame;
    (void)core;
    (void)vpn;

    // Line 6: offload the data-management task to the back-end. The
    // handler stalls inside the critical section while the interface
    // register is busy (no free PCSHR).
    backend_.offloadFill(
        cfn, pfn, pri_sub_block,
        /*accepted=*/
        [this, cfn, pfn, acquired, arrival,
         done](Tick accept_tick) mutable {
            // Lines 7-10: tag management.
            CachePageDescriptor &c = cpds_[cfn];
            c.valid = true;
            c.pfn = pfn;
            c.dirtyInCache = false;
            c.tlbDirectory = 0;
            pageTable_.ppd(pfn).cached = true;
            int updated = 0;
            for (Pte *p : pageTable_.reversePtes(pfn)) {
                p->cached = true;
                p->frame = cfn;
                ++updated;
            }
            pageTable_.remapped();
            if (updated > 1)
                sharedPtesUpdated += updated - 1;

            // Lines 11-14: eviction flag.
            if (freeFrames_ < params_.evictionThreshold)
                wakeDaemon();

            const Tick release = std::max(
                acquired + params_.tagMgmtBaseCycles, accept_tick);
            tagMgmtLatency.sample(
                static_cast<double>(release - arrival));
            const Tick now = curTick();
            schedule(release - now, [this]() { unlockMutex(); });
            if (!params_.blocking) {
                schedule(release - now,
                         [done, release]() { done(release); });
            }
        },
        /*done=*/
        [this, done, arrival](Tick fill_done) {
            if (params_.blocking) {
                const Tick resume =
                    std::max(fill_done,
                             arrival + params_.tagMgmtBaseCycles);
                const Tick now = curTick();
                schedule(resume > now ? resume - now : 0,
                         [done, resume]() { done(resume); });
            }
        });
}

void
OsFrontEnd::noteStore(Pte *pte)
{
    pte->dirty = true;
    if (pte->cached)
        cpds_[pte->frame].dirtyInCache = true;
}

void
OsFrontEnd::tlbInserted(int core, const Pte &pte)
{
    if (pte.cached && core >= 0 && core < 64)
        cpds_[pte.frame].tlbDirectory |= (1ULL << core);
}

void
OsFrontEnd::tlbEvicted(int core, const Pte &pte)
{
    if (pte.cached && core >= 0 && core < 64)
        cpds_[pte.frame].tlbDirectory &= ~(1ULL << core);
}

void
OsFrontEnd::wakeDaemon()
{
    if (daemonActive_)
        return;
    daemonActive_ = true;
    // At least one tick of wake latency: a zero-cost daemon must still
    // let simulated time advance between passes.
    schedule(std::max<Tick>(1, params_.daemonWakeLatency), [this]() {
        lockMutex([this](Tick acquired) { daemonPass(acquired); });
    });
}

void
OsFrontEnd::daemonPass(Tick acquired)
{
    ++daemonPasses;
    daemonRemaining_ = params_.evictionBatch;
    if (auto *sink = tracer(); sink) {
        if (sink->enabled(trace::Cat::Sched)) {
            daemonTraceId_ = sink->nextAsyncId();
            sink->asyncBegin(
                tracePid(), "evict_daemon", trace::Cat::Sched,
                daemonTraceId_, acquired,
                {{"free_frames", static_cast<double>(freeFrames_)},
                 {"batch", static_cast<double>(params_.evictionBatch)}});
        }
        sink->counter(tracePid(), freeCounterName_.c_str(), acquired,
                      {{"free", static_cast<double>(freeFrames_)}});
    }
    evictVictims(0, acquired);
}

void
OsFrontEnd::evictVictims(std::uint32_t index, Tick now)
{
    while (index < params_.evictionBatch) {
        CachePageDescriptor &c = cpds_[tail_];
        const PageNum cfn = tail_;

        if (!c.valid) {
            // A hole (frame already free); costs nothing to pass.
            tail_ = (tail_ + 1) % params_.numFrames;
            ++index;
            continue;
        }
        if (c.tlbDirectory != 0) {
            if (params_.tlbShootdownAvoidance) {
                // Lines 6-8: skip to avoid a TLB shootdown. The frame
                // stays valid behind the tail; the head skips it
                // (Fig 5).
                ++evictionsSkippedTlb;
                tail_ = (tail_ + 1) % params_.numFrames;
                ++index;
                continue;
            }
            // Ablation mode: pay for a shootdown and evict anyway.
            ++tlbShootdowns;
            if (shootdownHook_) {
                for (int core = 0; core < 64; ++core) {
                    if ((c.tlbDirectory >> core) & 1ULL) {
                        for (PageNum vpn :
                             pageTable_.reverseMap(c.pfn)) {
                            shootdownHook_(core, vpn);
                        }
                    }
                }
            }
            c.tlbDirectory = 0;
            schedule(params_.shootdownCycles, [this, index]() {
                evictVictims(index, curTick());
            });
            return;
        }

        // Line 3 (flush_cache_range) at page granularity: drop SRAM
        // lines holding the victim frame's data.
        if (flushHook_)
            flushHook_(MemSpace::OnPackage,
                       static_cast<Addr>(cfn) << PageShift, PageBytes);

        auto reclaim = [this, cfn, index](Tick when) {
            CachePageDescriptor &cpd = cpds_[cfn];
            // Lines 12-15: restore PTEs through the reverse mapping.
            for (Pte *p : pageTable_.reversePtes(cpd.pfn)) {
                p->frame = cpd.pfn;
                p->cached = false;
            }
            pageTable_.remapped();
            pageTable_.ppd(cpd.pfn).cached = false;
            cpd.valid = false;
            cpd.dirtyInCache = false;
            cpd.tlbDirectory = 0;
            ++freeFrames_;
            ++evictions;
            tail_ = (tail_ + 1) % params_.numFrames;
            const Tick now2 = curTick();
            const Tick next = when + params_.evictPerFrameCycles;
            schedule(next > now2 ? next - now2 : 1, [this, index]() {
                evictVictims(index + 1, curTick());
            });
        };

        if (c.dirtyInCache) {
            // Lines 9-11: offload the writeback; the daemon continues
            // once the back-end accepts the command.
            ++writebacksIssued;
            backend_.offloadWriteback(cfn, c.pfn, reclaim, nullptr);
        } else {
            reclaim(now);
        }
        return; // Continuation resumes the loop.
    }
    finishDaemon(now);
}

void
OsFrontEnd::finishDaemon(Tick now)
{
    if (auto *sink = tracer(); sink) {
        if (daemonTraceId_ != 0) {
            sink->asyncEnd(
                tracePid(), "evict_daemon", trace::Cat::Sched,
                daemonTraceId_, now,
                {{"free_frames", static_cast<double>(freeFrames_)}});
            daemonTraceId_ = 0;
        }
        sink->counter(tracePid(), freeCounterName_.c_str(), now,
                      {{"free", static_cast<double>(freeFrames_)}});
    }
    daemonActive_ = false;
    unlockMutex();
    if (freeFrames_ < params_.evictionThreshold)
        wakeDaemon();
}

} // namespace nomad
