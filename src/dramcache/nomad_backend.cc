#include "nomad_backend.hh"

#include "harden/check.hh"
#include "harden/diag.hh"
#include "harden/fault.hh"
#include "sim/trace.hh"

namespace nomad
{

namespace
{

/** Async-span name of a page-copy lifecycle (one per command type). */
const char *
copySpanName(bool is_writeback)
{
    return is_writeback ? "writeback" : "fill";
}

} // namespace

NomadBackEnd::NomadBackEnd(Simulation &sim, const std::string &name,
                           const NomadBackEndParams &params,
                           DramDevice &on_package,
                           DramDevice &off_package)
    : SimObject(sim, name),
      fillCommands(name + ".fillCommands", "cache-fill commands"),
      writebackCommands(name + ".writebackCommands",
                        "writeback commands"),
      interfaceWait(name + ".interfaceWait",
                    "command wait for a free PCSHR (ticks)"),
      dataHits(name + ".dataHits", "DC accesses with no PCSHR match"),
      dataMisses(name + ".dataMisses", "DC accesses matching a PCSHR"),
      bufferReadHits(name + ".bufferReadHits",
                     "read data-misses served from a page copy buffer"),
      bufferWrites(name + ".bufferWrites",
                   "write data-misses absorbed by a page copy buffer"),
      pendingServed(name + ".pendingServed",
                    "sub-entry reads served on sub-block arrival"),
      subEntryRejects(name + ".subEntryRejects",
                      "accesses rejected with full sub-entries"),
      readsSkipped(name + ".readsSkipped",
                   "source reads avoided by the R vector"),
      staleReadsDropped(name + ".staleReadsDropped",
                        "read arrivals dropped by local overwrites"),
      fillLatency(name + ".fillLatency",
                  "command accept to page completion (ticks)"),
      copyRetries(name + ".copyRetries",
                  "copy-timeout abort-and-refetch events"),
      params_(params), onPackage_(on_package), offPackage_(off_package),
      pcshrCounterName_(name + ".pcshr")
{
    fatal_if(params.numPcshrs == 0, name, ": need at least one PCSHR");
    fatal_if(params.subEntriesPerPcshr == 0,
             name, ": need at least one sub-entry");
    if (params_.numBuffers == 0)
        params_.numBuffers = params_.numPcshrs;
    freeBuffers_ = params_.numBuffers;

    pcshrs_.resize(params.numPcshrs);
    for (auto &p : pcshrs_)
        p.subEntries.resize(params.subEntriesPerPcshr);
    fillIndex_.reserve(params.numPcshrs);

    auto &reg = sim.statistics();
    reg.add(&fillCommands);
    reg.add(&writebackCommands);
    reg.add(&interfaceWait);
    reg.add(&dataHits);
    reg.add(&dataMisses);
    reg.add(&bufferReadHits);
    reg.add(&bufferWrites);
    reg.add(&pendingServed);
    reg.add(&subEntryRejects);
    reg.add(&readsSkipped);
    reg.add(&staleReadsDropped);
    reg.add(&fillLatency);

    // The retry stat only exists on hardened runs so the default
    // stats-JSON stream stays byte-identical without a context.
    if (const harden::Context *ctx = sim.harden()) {
        injector_ = ctx->injector;
        reg.add(&copyRetries);
    }

    wakeIdx_ = sim.addClocked(this, 1);
    pump_.bind(sim, wakeIdx_);
}

void
NomadBackEnd::sendCacheFill(PageNum cfn, PageNum pfn,
                            std::uint32_t pri_sub_block,
                            AcceptCallback accepted, CompleteCallback done)
{
    sim_.pokeClocked(wakeIdx_);
    WaitingCmd cmd;
    cmd.isWriteback = false;
    cmd.cfn = cfn;
    cmd.pfn = pfn;
    cmd.priIdx = pri_sub_block;
    cmd.arrived = curTick();
    cmd.accepted = std::move(accepted);
    cmd.done = std::move(done);
    submit(std::move(cmd));
}

void
NomadBackEnd::sendWriteback(PageNum cfn, PageNum pfn,
                            AcceptCallback accepted, CompleteCallback done)
{
    sim_.pokeClocked(wakeIdx_);
    WaitingCmd cmd;
    cmd.isWriteback = true;
    cmd.cfn = cfn;
    cmd.pfn = pfn;
    cmd.arrived = curTick();
    cmd.accepted = std::move(accepted);
    cmd.done = std::move(done);
    submit(std::move(cmd));
}

void
NomadBackEnd::submit(WaitingCmd cmd)
{
    pump_.touch();
    // Lifecycle span: opens when the command reaches the interface
    // register, closes when the page copy retires (releasePcshr).
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Copy)) {
        cmd.traceId = sink->nextAsyncId();
        sink->asyncBegin(tracePid(), copySpanName(cmd.isWriteback),
                         trace::Cat::Copy, cmd.traceId, curTick(),
                         {{"cfn", static_cast<double>(cmd.cfn)},
                          {"pfn", static_cast<double>(cmd.pfn)},
                          {"pri_idx",
                           static_cast<double>(cmd.priIdx)}});
    }
    if (injector_ && injector_->allocationBlocked(curTick())) {
        // Injected PCSHR-exhaustion burst: the command queues behind
        // the busy interface exactly as if no register were free
        // (graceful degradation to blocking behaviour, Section IV-B).
        ++injector_->blockedCommands;
        waitQ_.push_back(std::move(cmd));
        return;
    }
    if (waitQ_.empty()) {
        const int slot = findFreeSlot();
        if (slot >= 0) {
            allocate(std::move(cmd), slot);
            return;
        }
    }
    // Interface stays busy (S bit set) until a PCSHR frees.
    waitQ_.push_back(std::move(cmd));
}

void
NomadBackEnd::allocate(WaitingCmd cmd, int slot)
{
    pump_.touch();
    const Tick now = curTick();
    Pcshr &p = pcshrs_[slot];
    panic_if(p.valid, "allocating a busy PCSHR");

    p.valid = true;
    p.isWriteback = cmd.isWriteback;
    p.pfn = cmd.pfn;
    p.cfn = cmd.cfn;
    p.pri = !cmd.isWriteback && params_.criticalDataFirst;
    p.priIdx = cmd.priIdx % SubBlocksPerPage;
    p.arm(now);
    p.acceptedAt = now;
    p.stuck = injector_ != nullptr && injector_->makeStuck();
    p.traceId = cmd.traceId;
    p.onDone = std::move(cmd.done);
    for (auto &se : p.subEntries)
        se = SubEntry{};
    ++activePcshrs_;
    if (!p.isWriteback)
        fillIndex_.insert(p.cfn, slot);

    if (auto *sink = tracer(); sink && p.traceId) {
        sink->asyncInstant(tracePid(), "pcshr_alloc", trace::Cat::Copy,
                           p.traceId, now,
                           {{"slot", static_cast<double>(slot)},
                            {"wait",
                             static_cast<double>(now - cmd.arrived)}});
    }
    tracePcshrCounter();

    if (cmd.isWriteback)
        ++writebackCommands;
    else
        ++fillCommands;
    interfaceWait.sample(static_cast<double>(now - cmd.arrived));

    if (freeBuffers_ > 0) {
        --freeBuffers_;
        assignBuffer(slot);
    } else {
        bufferWaiters_.push_back(slot);
    }

    if (cmd.accepted)
        cmd.accepted(now);
}

void
NomadBackEnd::assignBuffer(int slot)
{
    Pcshr &p = pcshrs_[slot];
    p.bufferId = 0; // Identity is irrelevant; presence gates transfers.
    p.lastProgress = curTick();
    // Serve write sub-entries that were waiting for buffer space
    // (area-optimized configurations only).
    for (auto &se : p.subEntries) {
        if (se.valid && se.isWrite) {
            setBit(p.bVec, se.subIdx);
            setBit(p.localVec, se.subIdx);
            if (!bit(p.rVec, se.subIdx)) {
                setBit(p.rVec, se.subIdx);
                ++readsSkipped;
            }
            ++bufferWrites;
            se.req->complete(curTick());
            se = SubEntry{};
        }
    }
    // A parked read whose sub-block an absorbed write just deposited
    // would otherwise wait forever: the source-read arrival that
    // normally serves it is dropped as stale against the B vector.
    for (auto &se : p.subEntries) {
        if (se.valid && !se.isWrite && bit(p.bVec, se.subIdx)) {
            ++pendingServed;
            se.req->complete(curTick() + params_.bufferReadLatency);
            se = SubEntry{};
        }
    }
    // A buffer, freed sub-entries and fresh B bits can each admit a
    // refused access.
    accessWaiters_.wakeAll();
}

int
NomadBackEnd::pickNextRead(const Pcshr &p) const
{
    if (p.bufferId < 0)
        return -1;
    if (p.rVec == AllSubBlocks)
        return -1;
    // 1. The prioritized (critical-data-first) sub-block.
    if (p.pri && !bit(p.rVec, p.priIdx))
        return static_cast<int>(p.priIdx);
    // 2. Optionally, sub-blocks demanded by parked sub-entries.
    if (params_.dynamicReprioritize) {
        for (const auto &se : p.subEntries) {
            if (se.valid && !se.isWrite && !bit(p.rVec, se.subIdx))
                return static_cast<int>(se.subIdx);
        }
    }
    // 3. Sequential fetch starting just after the prioritized index.
    const std::uint32_t start = p.pri ? p.priIdx : 0;
    for (std::uint32_t off = 0; off < SubBlocksPerPage; ++off) {
        const std::uint32_t idx = (start + off) % SubBlocksPerPage;
        if (!bit(p.rVec, idx))
            return static_cast<int>(idx);
    }
    return -1;
}

void
NomadBackEnd::issueReads(int slot)
{
    Pcshr &p = pcshrs_[slot];
    DramDevice &source = p.isWriteback ? onPackage_ : offPackage_;
    const MemSpace space = p.isWriteback ? MemSpace::OnPackage
                                         : MemSpace::OffPackage;
    const PageNum page = p.isWriteback ? p.cfn : p.pfn;
    const Category cat =
        p.isWriteback ? Category::Writeback : Category::Fill;

    while (p.readsInFlight < params_.maxReadsInFlight) {
        const int idx = pickNextRead(p);
        if (idx < 0)
            return;
        const Addr addr = (static_cast<Addr>(page) << PageShift) +
                          static_cast<Addr>(idx) * BlockBytes;
        const std::uint64_t gen = p.generation;
        auto req = makeRequest(
            addr, false, cat, space, curTick(),
            [this, slot, gen, idx](Tick when) {
                onReadArrive(slot, gen,
                             static_cast<std::uint32_t>(idx), when);
            });
        if (!source.tryAccess(req, pump_.waiter()))
            return; // Parked until the source channel frees a slot.
        setBit(p.rVec, static_cast<std::uint32_t>(idx));
        ++p.readsInFlight;
        pump_.progress();
    }
}

void
NomadBackEnd::onReadArrive(int slot, std::uint64_t gen, std::uint32_t idx,
                           Tick when)
{
    // Fault filter: current-generation responses may be swallowed
    // (stuck copy), dropped, or delayed before the model sees them.
    // Lost responses keep readsInFlight held — the data is gone, not
    // late — so recovery is the copy timeout's abort-and-refetch.
    if (injector_) {
        const Pcshr &p = pcshrs_[slot];
        if (p.valid && p.generation == gen) {
            if (p.stuck)
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
NomadBackEnd::deliverRead(int slot, std::uint64_t gen, std::uint32_t idx,
                          Tick when)
{
    sim_.pokeClocked(wakeIdx_);
    // An arrival frees a read-in-flight slot (and may unblock parked
    // sub-entries), so the pump owes this slot a pass.
    pump_.touch();
    Pcshr &p = pcshrs_[slot];
    if (!p.valid || p.generation != gen) {
        // The command completed through local writes and the slot was
        // recycled (or the copy was aborted and re-issued); the late
        // arrival carries no usable data.
        ++staleReadsDropped;
        return;
    }
    panic_if(p.readsInFlight == 0, "read arrival without issue");
    --p.readsInFlight;
    if (bit(p.bVec, idx)) {
        // A DC write already deposited newer data for this sub-block.
        ++staleReadsDropped;
        return;
    }
    NOMAD_CHECK(*this, bit(p.rVec, idx),
                "sub-block ", idx, " arrived without a read issued");
    setBit(p.bVec, idx);
    p.lastProgress = when;
    NOMAD_CHECK(*this, (p.bVec & ~p.rVec) == 0,
                "B vector not a subset of R after arrival of sub-block ",
                idx);

    trace::TraceSink *sink = p.traceId ? tracer() : nullptr;
    if (sink && p.pri && idx == p.priIdx) {
        // The critical-data-first sub-block landed in the buffer.
        sink->asyncInstant(tracePid(), "critical_block",
                           trace::Cat::Copy, p.traceId, when,
                           {{"sub_block", static_cast<double>(idx)}});
    }

    servePendingReads(p, idx, when);
    // The new B bit turns a refused read of this sub-block into a
    // buffer hit, and served sub-entries free slots.
    accessWaiters_.wakeAll();
    drainWrites(slot);
    maybeComplete(slot);
}

void
NomadBackEnd::servePendingReads(Pcshr &p, std::uint32_t idx, Tick when)
{
    trace::TraceSink *sink = p.traceId ? tracer() : nullptr;
    for (auto &se : p.subEntries) {
        if (se.valid && !se.isWrite && se.subIdx == idx) {
            ++pendingServed;
            se.req->complete(when + params_.bufferReadLatency);
            se = SubEntry{};
            if (sink) {
                sink->asyncInstant(
                    tracePid(), "subentry_served", trace::Cat::Copy,
                    p.traceId, when,
                    {{"sub_block", static_cast<double>(idx)}});
            }
        }
    }
}

void
NomadBackEnd::drainWrites(int slot)
{
    Pcshr &p = pcshrs_[slot];
    if (!p.valid)
        return;
    DramDevice &dest = p.isWriteback ? offPackage_ : onPackage_;
    const MemSpace space = p.isWriteback ? MemSpace::OffPackage
                                         : MemSpace::OnPackage;
    const PageNum page = p.isWriteback ? p.pfn : p.cfn;
    const Category cat =
        p.isWriteback ? Category::Writeback : Category::Fill;

    NOMAD_CHECK(*this, (p.wVec & ~p.bVec) == 0,
                "W vector not a subset of B for cfn ", p.cfn);
    std::uint64_t ready = p.bVec & ~p.wVec;
    while (ready != 0) {
        const auto idx =
            static_cast<std::uint32_t>(__builtin_ctzll(ready));
        const Addr addr = (static_cast<Addr>(page) << PageShift) +
                          static_cast<Addr>(idx) * BlockBytes;
        auto req = makeRequest(addr, true, cat, space, curTick());
        if (!dest.tryAccess(req, pump_.waiter()))
            return; // Parked until the destination frees a slot.
        setBit(p.wVec, idx);
        p.lastProgress = curTick();
        pump_.progress();
        ready &= ready - 1;
    }
}

void
NomadBackEnd::maybeComplete(int slot)
{
    Pcshr &p = pcshrs_[slot];
    if (!p.valid || !p.copyComplete())
        return;
    for (const auto &se : p.subEntries) {
        NOMAD_CHECK(*this, !se.valid,
                    "sub-entry for sub-block ", se.subIdx,
                    " still parked at completion of cfn ", p.cfn);
    }
    fillLatency.sample(static_cast<double>(curTick() - p.acceptedAt));
    if (p.onDone)
        p.onDone(curTick());
    releasePcshr(slot);
}

void
NomadBackEnd::tracePcshrCounter()
{
    if (auto *sink = tracer()) {
        sink->counter(tracePid(), pcshrCounterName_.c_str(), curTick(),
                      {{"active", static_cast<double>(activePcshrs_)},
                       {"queued",
                        static_cast<double>(waitQ_.size())}});
    }
}

void
NomadBackEnd::releasePcshr(int slot)
{
    pump_.progress();
    pump_.touch();
    Pcshr &p = pcshrs_[slot];
    if (auto *sink = p.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), copySpanName(p.isWriteback),
                       trace::Cat::Copy, p.traceId, curTick(),
                       {{"latency", static_cast<double>(
                                        curTick() - p.acceptedAt)}});
    }
    p.traceId = 0;
    p.valid = false;
    if (!p.isWriteback)
        fillIndex_.erase(p.cfn);
    p.retire();
    --activePcshrs_;
    tracePcshrCounter();
    // No PCSHR matches the page any more: a refused access data-hits.
    accessWaiters_.wakeAll();

    // Pass the page copy buffer to the next waiter, FIFO.
    if (!bufferWaiters_.empty()) {
        const int next = bufferWaiters_.front();
        bufferWaiters_.pop_front();
        assignBuffer(next);
    } else {
        ++freeBuffers_;
    }
    p.bufferId = -1;

    // The interface can now hand a waiting command to this slot —
    // unless an injected exhaustion burst holds allocation closed, in
    // which case tick() drains the queue once the window passes.
    if (!waitQ_.empty() &&
        !(injector_ && injector_->allocationBlocked(curTick()))) {
        WaitingCmd cmd = std::move(waitQ_.front());
        waitQ_.pop_front();
        allocate(std::move(cmd), slot);
    }
}

NomadBackEnd::AccessResult
NomadBackEnd::access(const MemRequestPtr &req, PortWaiter *waiter)
{
    sim_.pokeClocked(wakeIdx_);
    panic_if(req->space != MemSpace::OnPackage,
             "data-hit verification is for on-package accesses");
    const PageNum cfn = pageOf(req->addr);
    const std::uint32_t idx = subBlockOf(req->addr);

    // CAM compare of the access CFN against the PCSHR tags (Fig 6),
    // modelled as an open-addressed cfn -> slot table.
    Pcshr *match = nullptr;
    int match_slot = -1;
    if (const int *slot = fillIndex_.find(cfn)) {
        match_slot = *slot;
        match = &pcshrs_[match_slot];
    }
    if (!match) {
        // The caller forwards to on-package DRAM and records the data
        // hit once the device accepts (avoids double counting retries).
        return AccessResult::DataHit;
    }
    Pcshr &p = *match;
    // Every matched path below may mutate PCSHR state (vectors,
    // sub-entries) in ways that give the pump new work.
    pump_.touch();

    if (req->isWrite) {
        if (p.bufferId < 0) {
            // No buffer yet (area-optimized); park the write.
            for (auto &se : p.subEntries) {
                if (!se.valid) {
                    se.valid = true;
                    se.isWrite = true;
                    se.subIdx = idx;
                    se.req = req;
                    ++dataMisses;
                    if (auto *sink = p.traceId ? tracer() : nullptr) {
                        sink->asyncInstant(
                            tracePid(), "subentry_parked",
                            trace::Cat::Copy, p.traceId, curTick(),
                            {{"sub_block", static_cast<double>(idx)},
                             {"write", 1}});
                    }
                    return AccessResult::Pending;
                }
            }
            ++subEntryRejects;
            accessWaiters_.park(waiter);
            return AccessResult::Reject;
        }
        ++dataMisses;
        setBit(p.bVec, idx);
        setBit(p.localVec, idx);
        if (!bit(p.rVec, idx)) {
            // The R vector suppresses the now-redundant source read.
            setBit(p.rVec, idx);
            ++readsSkipped;
        }
        ++bufferWrites;
        req->complete(curTick());
        // A read already parked on this sub-block must be served from
        // the newly deposited data now: the source-read arrival that
        // would have served it will be dropped as stale against the B
        // vector, so leaving the sub-entry would strand it forever.
        servePendingReads(p, idx, curTick());
        accessWaiters_.wakeAll();
        drainWrites(match_slot);
        maybeComplete(match_slot);
        return AccessResult::Serviced;
    }

    if (bit(p.bVec, idx)) {
        // Page copy buffer hit: cheaper than an on-package access.
        ++dataMisses;
        ++bufferReadHits;
        const Tick done = curTick() + params_.bufferReadLatency;
        auto r = req;
        schedule(params_.bufferReadLatency,
                 [r, done]() { r->complete(done); });
        return AccessResult::Serviced;
    }

    for (auto &se : p.subEntries) {
        if (!se.valid) {
            se.valid = true;
            se.isWrite = false;
            se.subIdx = idx;
            se.req = req;
            ++dataMisses;
            if (auto *sink = p.traceId ? tracer() : nullptr) {
                sink->asyncInstant(
                    tracePid(), "subentry_parked", trace::Cat::Copy,
                    p.traceId, curTick(),
                    {{"sub_block", static_cast<double>(idx)},
                     {"write", 0}});
            }
            return AccessResult::Pending;
        }
    }
    ++subEntryRejects;
    accessWaiters_.park(waiter);
    return AccessResult::Reject;
}

bool
NomadBackEnd::hasFillInFlight(PageNum cfn) const
{
    return fillIndex_.find(cfn) != nullptr;
}

void
NomadBackEnd::tick()
{
    // Hardened paths only; both stay off the default fast path.
    if (injector_)
        drainBlockedCommands();
    if (params_.copyTimeoutTicks > 0)
        checkCopyTimeouts();

    if (activePcshrs_ == 0)
        return;
    const auto n = static_cast<std::uint32_t>(pcshrs_.size());
    if (pump_.asleep()) {
        // Asleep: the pass below is a proven no-op; only the fairness
        // cursor advances (see skipTicks).
        rrCursor_ = (rrCursor_ + 1) % n;
        return;
    }
    pump_.beginPass();
    // Round-robin across PCSHRs so one hot command cannot starve the
    // others' source-read issue slots.
    for (std::uint32_t off = 0; off < n; ++off) {
        const std::uint32_t slot = (rrCursor_ + off) % n;
        if (!pcshrs_[slot].valid)
            continue;
        issueReads(static_cast<int>(slot));
        drainWrites(static_cast<int>(slot));
        maybeComplete(static_cast<int>(slot));
    }
    rrCursor_ = (rrCursor_ + 1) % n;
    // A pass with no issue and no completion leaves all PCSHR state
    // untouched; further passes stay no-ops until an arrival, an
    // access, a new command, or a refusing channel wakes the pump.
    pump_.endPass();
}

int
NomadBackEnd::findFreeSlot() const
{
    for (std::size_t i = 0; i < pcshrs_.size(); ++i) {
        if (!pcshrs_[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

void
NomadBackEnd::drainBlockedCommands()
{
    // Commands parked by an exhaustion burst resume once the window
    // passes; the normal release-time hand-off covers the rest.
    if (waitQ_.empty() || injector_->allocationBlocked(curTick()))
        return;
    while (!waitQ_.empty()) {
        const int slot = findFreeSlot();
        if (slot < 0)
            return;
        WaitingCmd cmd = std::move(waitQ_.front());
        waitQ_.pop_front();
        allocate(std::move(cmd), slot);
    }
}

void
NomadBackEnd::checkCopyTimeouts()
{
    const Tick now = curTick();
    for (std::size_t i = 0; i < pcshrs_.size(); ++i) {
        const Pcshr &p = pcshrs_[i];
        // Only copies that hold a buffer can be stuck on lost reads; a
        // buffer-less PCSHR is legitimately parked in the FIFO.
        if (p.valid && p.bufferId >= 0 &&
            now - p.lastProgress > params_.copyTimeoutTicks) {
            retryCopy(static_cast<int>(i));
        }
    }
}

void
NomadBackEnd::retryCopy(int slot)
{
    pump_.touch();
    Pcshr &p = pcshrs_[slot];
    // Abort-and-refetch (docs/HARDENING.md): orphan every in-flight
    // read by bumping the generation — a late arrival is then dropped
    // as stale — and rewind R to the sub-blocks that actually landed
    // so issueReads() re-fetches the lost ones.
    p.rewindLost(curTick());
    ++copyRetries;
    if (auto *sink = p.traceId ? tracer() : nullptr) {
        sink->asyncInstant(tracePid(), "copy_retry", trace::Cat::Copy,
                           p.traceId, curTick(),
                           {{"slot", static_cast<double>(slot)}});
    }
    issueReads(slot);
}

void
NomadBackEnd::checkDrained() const
{
    NOMAD_CHECK(*this, activePcshrs_ == 0,
                "PCSHR leak: ", activePcshrs_, " still active at drain");
    NOMAD_CHECK(*this, waitQ_.empty(),
                "interface leak: ", waitQ_.size(),
                " commands still queued at drain");
    NOMAD_CHECK(*this, bufferWaiters_.empty(),
                "buffer-FIFO leak: ", bufferWaiters_.size(),
                " PCSHRs still waiting for a buffer at drain");
    NOMAD_CHECK(*this, freeBuffers_ == params_.numBuffers,
                "buffer leak: ", freeBuffers_, " of ",
                params_.numBuffers, " page copy buffers free at drain");
    NOMAD_CHECK(*this, accessWaiters_.parked() == 0,
                "waiter leak: ", accessWaiters_.parked(),
                " refused accesses still parked at drain");
    for (const auto &p : pcshrs_) {
        NOMAD_CHECK(*this, !p.valid && p.readsInFlight == 0,
                    "PCSHR for cfn ", p.cfn, " not released at drain");
        for (const auto &se : p.subEntries) {
            NOMAD_CHECK(*this, !se.valid,
                        "sub-entry leak: a request for sub-block ",
                        se.subIdx, " is still parked at drain");
        }
    }
}

void
NomadBackEnd::snapshot(harden::Snapshot &snap) const
{
    snap.set(name_, "activePcshrs", static_cast<double>(activePcshrs_));
    snap.set(name_, "queuedCommands",
             static_cast<double>(waitQ_.size()));
    snap.set(name_, "freeBuffers", static_cast<double>(freeBuffers_));
    snap.set(name_, "bufferWaiters",
             static_cast<double>(bufferWaiters_.size()));
    for (std::size_t i = 0; i < pcshrs_.size(); ++i) {
        const Pcshr &p = pcshrs_[i];
        if (!p.valid)
            continue;
        std::uint32_t parked = 0;
        for (const auto &se : p.subEntries)
            parked += se.valid ? 1 : 0;
        snap.set(name_, "pcshr" + std::to_string(i),
                 detail::concat(
                     p.isWriteback ? "writeback" : "fill",
                     " cfn=", p.cfn, " pfn=", p.pfn,
                     " r=", __builtin_popcountll(p.rVec),
                     " b=", __builtin_popcountll(p.bVec),
                     " w=", __builtin_popcountll(p.wVec),
                     " inflight=", p.readsInFlight,
                     " buffer=", p.bufferId >= 0 ? 1 : 0,
                     " parked=", parked, " stuck=", p.stuck ? 1 : 0,
                     " idleFor=", curTick() - p.lastProgress));
    }
}

} // namespace nomad
