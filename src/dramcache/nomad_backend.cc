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
    : CopyPump(sim, name, params.numPcshrs),
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

    for (auto &p : slots_)
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
    if (sim.harden())
        reg.add(&copyRetries);

    wakeIdx_ = sim.addClocked(this, 1);
    pump_.bind(sim, wakeIdx_);
}

void
NomadBackEnd::sendCacheFill(PageNum cfn, PageNum pfn,
                            std::uint32_t pri_sub_block,
                            AcceptCallback accepted, CompleteCallback done)
{
    submit(false, cfn, pfn, pri_sub_block, std::move(accepted),
           std::move(done));
}

void
NomadBackEnd::sendWriteback(PageNum cfn, PageNum pfn,
                            AcceptCallback accepted, CompleteCallback done)
{
    submit(true, cfn, pfn, 0, std::move(accepted), std::move(done));
}

void
NomadBackEnd::submit(bool is_writeback, PageNum cfn, PageNum pfn,
                     std::uint32_t pri_idx, AcceptCallback accepted,
                     CompleteCallback done)
{
    sim_.pokeClocked(wakeIdx_);
    WaitingCmd cmd{is_writeback, cfn, pfn, pri_idx, curTick(),
                   /*traceId=*/0, std::move(accepted), std::move(done)};
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
    const Tick now = curTick();
    Pcshr &p = slots_[slot];
    claimSlot(p, cmd.pfn, cmd.cfn);
    p.isWriteback = cmd.isWriteback;
    p.pri = !cmd.isWriteback && params_.criticalDataFirst;
    p.priIdx = cmd.priIdx % SubBlocksPerPage;
    p.traceId = cmd.traceId;
    p.onDone = std::move(cmd.done);
    for (auto &se : p.subEntries)
        se = SubEntry{};
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
    Pcshr &p = slots_[slot];
    p.bufferId = 0; // Identity is irrelevant; presence gates transfers.
    p.lastProgress = curTick();
    // Serve write sub-entries that were waiting for buffer space
    // (area-optimized configurations only).
    for (auto &se : p.subEntries) {
        if (se.valid && se.isWrite) {
            absorbWrite(p, se.subIdx);
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

void
NomadBackEnd::absorbWrite(Pcshr &p, std::uint32_t idx)
{
    setBit(p.bVec, idx);
    setBit(p.localVec, idx);
    if (!bit(p.rVec, idx)) {
        // The R vector suppresses the now-redundant source read.
        setBit(p.rVec, idx);
        ++readsSkipped;
    }
    ++bufferWrites;
}

int
NomadBackEnd::nextRead(const Pcshr &p) const
{
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
NomadBackEnd::onReadArrive(int slot, std::uint64_t gen, std::uint32_t idx,
                           Tick when)
{
    arrive(slot, gen, idx, when);
}

bool
NomadBackEnd::admitArrival(Pcshr &p, std::uint32_t idx)
{
    if (bit(p.bVec, idx)) {
        // A DC write already deposited newer data for this sub-block.
        ++staleReadsDropped;
        return false;
    }
    return true;
}

void
NomadBackEnd::onArrival(Pcshr &p, std::uint32_t idx, Tick when)
{
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
NomadBackEnd::completeCopy(int slot)
{
    Pcshr &p = slots_[slot];
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
                      {{"active", static_cast<double>(active_)},
                       {"queued",
                        static_cast<double>(waitQ_.size())}});
    }
}

void
NomadBackEnd::releasePcshr(int slot)
{
    Pcshr &p = slots_[slot];
    if (auto *sink = p.traceId ? tracer() : nullptr) {
        sink->asyncEnd(tracePid(), copySpanName(p.isWriteback),
                       trace::Cat::Copy, p.traceId, curTick(),
                       {{"latency", static_cast<double>(
                                        curTick() - p.acceptedAt)}});
    }
    freeSlot(p);
    if (!p.isWriteback)
        fillIndex_.erase(p.cfn);
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
    const int *match = fillIndex_.find(cfn);
    if (!match) {
        // The caller forwards to on-package DRAM and records the data
        // hit once the device accepts (avoids double counting retries).
        return AccessResult::DataHit;
    }
    const int match_slot = *match;
    Pcshr &p = slots_[match_slot];
    // Every matched path below may mutate PCSHR state (vectors,
    // sub-entries) in ways that give the pump new work.
    pump_.touch();

    if (req->isWrite) {
        if (p.bufferId < 0) {
            // No buffer yet (area-optimized); park the write.
            return parkAccess(p, req, idx, waiter);
        }
        ++dataMisses;
        absorbWrite(p, idx);
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

    return parkAccess(p, req, idx, waiter);
}

NomadBackEnd::AccessResult
NomadBackEnd::parkAccess(Pcshr &p, const MemRequestPtr &req,
                         std::uint32_t idx, PortWaiter *waiter)
{
    for (auto &se : p.subEntries) {
        if (se.valid)
            continue;
        se = SubEntry{true, req->isWrite, idx, req};
        ++dataMisses;
        if (auto *sink = p.traceId ? tracer() : nullptr) {
            sink->asyncInstant(tracePid(), "subentry_parked",
                               trace::Cat::Copy, p.traceId, curTick(),
                               {{"sub_block", static_cast<double>(idx)},
                                {"write", req->isWrite ? 1.0 : 0.0}});
        }
        return AccessResult::Pending;
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
    // Hardened path only; stays off the default fast path.
    if (injector_)
        drainBlockedCommands();
    pumpSlots();
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
NomadBackEnd::checkDrained() const
{
    NOMAD_CHECK(*this, active_ == 0,
                "PCSHR leak: ", active_, " still active at drain");
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
    for (const auto &p : slots_) {
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
    snap.set(name_, "activePcshrs", static_cast<double>(active_));
    snap.set(name_, "queuedCommands",
             static_cast<double>(waitQ_.size()));
    snap.set(name_, "freeBuffers", static_cast<double>(freeBuffers_));
    snap.set(name_, "bufferWaiters",
             static_cast<double>(bufferWaiters_.size()));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Pcshr &p = slots_[i];
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
