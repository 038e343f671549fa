#include "channel.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace nomad
{

namespace
{

/** Trace name of a CAS burst by category and direction. */
const char *
burstName(Category cat, bool is_write)
{
    switch (cat) {
      case Category::Demand: return is_write ? "WR.demand" : "RD.demand";
      case Category::Metadata: return is_write ? "WR.meta" : "RD.meta";
      case Category::Fill: return is_write ? "WR.fill" : "RD.fill";
      case Category::Writeback: return is_write ? "WR.wb" : "RD.wb";
      case Category::PageWalk: return is_write ? "WR.walk" : "RD.walk";
      default: return is_write ? "WR" : "RD";
    }
}

} // namespace

DramChannel::DramChannel(Simulation &sim, const std::string &name,
                         const DramTiming &timing, MappingScheme mapping,
                         std::uint32_t channel_id, DramStats &stats)
    : SimObject(sim, name), timing_(timing), mapping_(mapping),
      channelId_(channel_id), stats_(stats)
{
    const Tick r = timing.clkRatio;
    tCL_ = timing.tCL * r;
    tCWL_ = timing.tCWL * r;
    tRCD_ = timing.tRCD * r;
    tRP_ = timing.tRP * r;
    tRAS_ = timing.tRAS * r;
    tRTP_ = timing.tRTP * r;
    tWR_ = timing.tWR * r;
    tWTR_ = timing.tWTR * r;
    tRTW_ = timing.tRTW * r;
    tCCD_ = timing.tCCD * r;
    tRRD_ = timing.tRRD * r;
    tFAW_ = timing.tFAW * r;
    tRFC_ = timing.tRFC * r;
    tREFI_ = timing.tREFI * r;
    tBL_ = timing.burstCycles * r;

    ranks_.resize(timing.ranksPerChannel);
    for (std::uint32_t i = 0; i < timing.ranksPerChannel; ++i) {
        ranks_[i].banks.resize(timing.banksPerRank());
        // Stagger refresh across ranks to avoid artificial alignment.
        ranks_[i].nextRefresh =
            tREFI_ + (tREFI_ / timing.ranksPerChannel) * i;
    }
    nextCasBankGroup_.assign(
        timing.ranksPerChannel,
        std::vector<Tick>(timing.bankGroups, 0));
    claimStamp_.assign(static_cast<std::size_t>(
                           timing.ranksPerChannel) *
                           timing.banksPerRank(),
                       0);
    writeBlocks_.reserve(timing.writeQueueDepth);
    wakeIdx_ = sim.addClocked(this, timing.clkRatio);
}

bool
DramChannel::enqueue(const MemRequestPtr &req, const DramCoord &coord,
                     PortWaiter *waiter)
{
    sim_.pokeClocked(wakeIdx_);
    const Tick now = curTick();
    const Addr block = blockAlign(req->addr);
    const bool queued_write = writeBlocks_.find(block) != nullptr;

    if (req->isWrite) {
        // Merge with an already-queued write to the same block.
        if (queued_write) {
            ++stats_.mergedWrites;
            stats_.addTraffic(req->category, true, BlockBytes);
            ++stats_.writeReqs;
            req->complete(now);
            return true;
        }
        if (writeQ_.size() >= timing_.writeQueueDepth) {
            writeWaiters_.park(waiter);
            return false;
        }
        QEntry entry;
        entry.req = req;
        entry.coord = coord;
        entry.block = block;
        entry.flatBank = coord.flatBank(timing_);
        entry.globalBank =
            coord.rank * timing_.banksPerRank() + entry.flatBank;
        entry.enqueued = now;
        writeQ_.push_back(std::move(entry));
        writeBlocks_.insert(block, true);
        setWake(0);
        ++stats_.writeReqs;
        stats_.addTraffic(req->category, true, BlockBytes);
        // A parked read of this block can now forward, and a parked
        // write of it can merge.
        readWaiters_.wakeAll();
        writeWaiters_.wakeAll();
        // Posted write: signal acceptance immediately.
        req->complete(now);
        return true;
    }

    // Read: forward from a queued write if the data is newer here.
    if (queued_write) {
        ++stats_.forwards;
        ++stats_.readReqs;
        stats_.readLatency.sample(1.0);
        // Completion on the next CPU tick keeps callback ordering
        // out of the caller's stack frame.
        auto r = req;
        const Tick done = now + 1;
        schedule(1, [r, done]() { r->complete(done); });
        return true;
    }
    if (readQ_.size() >= timing_.readQueueDepth) {
        readWaiters_.park(waiter);
        return false;
    }
    QEntry entry;
    entry.req = req;
    entry.coord = coord;
    entry.block = block;
    entry.flatBank = coord.flatBank(timing_);
    entry.globalBank =
        coord.rank * timing_.banksPerRank() + entry.flatBank;
    entry.enqueued = now;
    readQ_.push_back(std::move(entry));
    setWake(0);
    return true;
}

void
DramChannel::maybeRefresh(RankState &rank)
{
    const Tick now = curTick();
    if (now < rank.nextRefresh)
        return;

    // Catch up the schedule in case we were idle across intervals; a
    // single tRFC penalty stands in for the missed ones, which is
    // harmless because the channel was empty while they were due.
    while (rank.nextRefresh <= now)
        rank.nextRefresh += tREFI_;

    Tick start = now;
    for (auto &bank : rank.banks) {
        if (bank.open)
            start = std::max(start, bank.nextPrecharge + tRP_);
    }
    rank.refreshUntil = start + tRFC_;
    for (auto &bank : rank.banks) {
        bank.open = false;
        bank.nextActivate =
            std::max(bank.nextActivate, rank.refreshUntil);
    }
    ++stats_.refreshes;
    stats_.energyPj += timing_.eRefresh;
}

bool
DramChannel::canCasLocal(const QEntry &entry, bool is_write,
                         Tick now) const
{
    const BankState &bank = bankOf(entry);
    const RankState &rank = ranks_[entry.coord.rank];
    if (!bank.open || bank.row != entry.coord.row)
        return false;
    if (now < rank.refreshUntil)
        return false;
    if (now < (is_write ? bank.nextWrite : bank.nextRead))
        return false;
    return now >=
           nextCasBankGroup_[entry.coord.rank][entry.coord.bankGroup];
}

void
DramChannel::issueCas(QEntry entry, bool is_write, Tick now)
{
    BankState &bank = bankOf(entry);

    if (entry.sawConflict)
        ++stats_.rowConflicts;
    else if (entry.sawActivate)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    nextCasBankGroup_[entry.coord.rank][entry.coord.bankGroup] =
        now + tCCD_;

    // Data-bus busy interval: burst start to burst end on this
    // channel's track (category Dram, opt-in: --trace-dram).
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Dram)) {
        const Tick start = now + (is_write ? tCWL_ : tCL_);
        sink->complete(
            tracePid(), name(), burstName(entry.req->category, is_write),
            trace::Cat::Dram, start, tBL_,
            {{"addr", static_cast<double>(entry.req->addr)},
             {"row", static_cast<double>(entry.coord.row)},
             {"bank", static_cast<double>(entry.coord.flatBank(
                          timing_))}});
    }

    if (is_write) {
        const Tick burst_end = now + tCWL_ + tBL_;
        busBusyUntil_ = burst_end;
        bank.nextPrecharge =
            std::max(bank.nextPrecharge, burst_end + tWR_);
        nextReadCas_ = std::max(nextReadCas_, burst_end + tWTR_);
        stats_.energyPj += timing_.eWrite;
        // The write request already completed at acceptance (posted).
        return;
    }

    const Tick data_ready = now + tCL_ + tBL_;
    busBusyUntil_ = data_ready;
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRTP_);
    nextWriteCas_ = std::max(nextWriteCas_, now + tRTW_);
    stats_.energyPj += timing_.eRead;

    ++stats_.readReqs;
    stats_.addTraffic(entry.req->category, false, BlockBytes);
    stats_.readLatency.sample(
        static_cast<double>(data_ready - entry.enqueued));

    auto req = entry.req;
    sim_.events().schedule(data_ready,
                           [req, data_ready]() {
                               req->complete(data_ready);
                           });
}

bool
DramChannel::tryIssueCas(std::deque<QEntry> &queue, bool is_write,
                         Tick &wake)
{
    if (queue.empty())
        return false;

    const Tick now = curTick();

    // Channel-global constraints are identical for every entry of
    // one direction; failing them here skips the whole queue scan.
    // The bound contributed is the gate itself — conservative (entry
    // locals may push further out), which only shortens the sleep.
    const Tick cas_lat = is_write ? tCWL_ : tCL_;
    Tick gate = is_write ? nextWriteCas_ : nextReadCas_;
    if (busBusyUntil_ > cas_lat)
        gate = std::max(gate, busBusyUntil_ - cas_lat);
    if (now < gate) {
        wake = std::min(wake, gate);
        return false;
    }

    // FR-FCFS pass 1: oldest request that can CAS right now (this
    // inherently prefers open-row hits since others cannot CAS).
    // Entries that only wait on CAS timing (bank open, right row)
    // contribute the exact tick all their gates pass; closed or
    // conflicting banks need a PRE/ACT first, which tryPrepareBank
    // bounds.
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (canCasLocal(*it, is_write, now)) {
            QEntry entry = std::move(*it);
            queue.erase(it);
            if (is_write)
                writeBlocks_.erase(entry.block);
            // The freed slot can admit a parked sender.
            (is_write ? writeWaiters_ : readWaiters_).wakeAll();
            issueCas(std::move(entry), is_write, now);
            return true;
        }
        const BankState &bank = bankOf(*it);
        if (!bank.open || bank.row != it->coord.row)
            continue;
        const RankState &rank = ranks_[it->coord.rank];
        Tick t = std::max(rank.refreshUntil,
                          is_write ? bank.nextWrite : bank.nextRead);
        t = std::max(t, nextCasBankGroup_[it->coord.rank]
                                         [it->coord.bankGroup]);
        wake = std::min(wake, t);
    }
    return false;
}

bool
DramChannel::tryPrepareBank(std::deque<QEntry> &queue, Tick &wake)
{
    const Tick now = curTick();

    // FR-FCFS pass 2: advance the bank FSM (PRE or ACT) for the oldest
    // request whose bank is not ready. Only one command per cycle.
    // Stamp banks already targeted by an older entry so a younger entry
    // cannot steal the bank and livelock the older one. Each blocked
    // claimant contributes the exact tick its failing gate opens.
    ++claimEpoch_;
    for (auto &entry : queue) {
        if (claimStamp_[entry.globalBank] == claimEpoch_)
            continue;
        claimStamp_[entry.globalBank] = claimEpoch_;
        BankState &bank = bankOf(entry);
        RankState &rank = ranks_[entry.coord.rank];

        if (now < rank.refreshUntil) {
            wake = std::min(wake, rank.refreshUntil);
            continue;
        }

        if (bank.open && bank.row != entry.coord.row) {
            if (now >= bank.nextPrecharge) {
                bank.open = false;
                bank.nextActivate =
                    std::max(bank.nextActivate, now + tRP_);
                entry.sawConflict = true;
                return true;
            }
            wake = std::min(wake, bank.nextPrecharge);
            continue;
        }
        if (!bank.open) {
            // The four-activate window only binds once four ACTs have
            // actually happened (a zero-initialised window must not
            // throttle the first activates after reset).
            const bool faw_ok =
                rank.actCount < rank.actWindow.size() ||
                now >= rank.actWindow[rank.actWindowIdx] + tFAW_;
            if (now >= bank.nextActivate && now >= rank.nextAct &&
                faw_ok) {
                stats_.energyPj += timing_.eActPre;
                bank.open = true;
                bank.row = entry.coord.row;
                bank.nextRead = std::max(bank.nextRead, now + tRCD_);
                bank.nextWrite = std::max(bank.nextWrite, now + tRCD_);
                bank.nextPrecharge =
                    std::max(bank.nextPrecharge, now + tRAS_);
                rank.nextAct = now + tRRD_;
                rank.actWindow[rank.actWindowIdx] = now;
                rank.actWindowIdx =
                    (rank.actWindowIdx + 1) % rank.actWindow.size();
                ++rank.actCount;
                if (!entry.sawConflict)
                    entry.sawActivate = true;
                return true;
            }
            Tick t = std::max(bank.nextActivate, rank.nextAct);
            if (rank.actCount >= rank.actWindow.size())
                t = std::max(
                    t, rank.actWindow[rank.actWindowIdx] + tFAW_);
            wake = std::min(wake, t);
            continue;
        }
        // Bank open with the right row: waiting on CAS timing only
        // (bounded by the CAS pass).
    }
    return false;
}

void
DramChannel::tick()
{
    // Inside a computed sleep window nothing can change: every gate
    // below is a threshold on frozen state (enqueue() would have reset
    // the bound), the bound never passes a rank's next refresh, and
    // the hysteresis is at a fixed point while the queues are frozen.
    if (curTick() < nextWake_)
        return;

    for (auto &rank : ranks_)
        maybeRefresh(rank);

    // Empty channel: nothing below can issue a command, and the
    // hysteresis update reduces to leaving drain mode, so fold that
    // in and sleep until the earliest refresh.
    if (readQ_.empty() && writeQ_.empty()) {
        drainingWrites_ = false;
        Tick wake = MaxTick;
        for (const auto &rank : ranks_)
            wake = std::min(wake, rank.nextRefresh);
        setWake(wake);
        return;
    }

    // Write-drain hysteresis.
    if (!drainingWrites_ &&
        (writeQ_.size() >= timing_.writeHighWatermark ||
         (readQ_.empty() && !writeQ_.empty()))) {
        drainingWrites_ = true;
    }
    if (drainingWrites_ &&
        (writeQ_.size() <= timing_.writeLowWatermark ||
         (writeQ_.empty()))) {
        // Leave drain mode when low watermark reached and reads wait.
        if (!readQ_.empty() || writeQ_.empty())
            drainingWrites_ = false;
    }

    std::deque<QEntry> &primary = drainingWrites_ ? writeQ_ : readQ_;
    std::deque<QEntry> &secondary = drainingWrites_ ? readQ_ : writeQ_;
    const bool primary_is_write = drainingWrites_;

    Tick wake = MaxTick;
    if (tryIssueCas(primary, primary_is_write, wake))
        return;
    if (tryPrepareBank(primary, wake))
        return;
    // The primary direction is fully blocked on timing; opportunistically
    // service the other direction rather than idling the command bus.
    if (tryIssueCas(secondary, !primary_is_write, wake))
        return;
    if (tryPrepareBank(secondary, wake))
        return;

    // Nothing could issue: every gate that failed is of the form
    // `now >= threshold` over state only this function mutates, and the
    // failed passes collected the minimum of those thresholds as they
    // scanned. Refresh bookkeeping mutates bank state on its own
    // schedule, so the sleep window must also end no later than the
    // earliest due refresh. A bound at or before now simply disables
    // the sleep (the guard re-evaluates every tick), never skips work.
    for (const auto &rank : ranks_)
        wake = std::min(wake, rank.nextRefresh);
    setWake(wake);
}

} // namespace nomad
