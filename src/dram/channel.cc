#include "channel.hh"

#include <algorithm>
#include <bit>

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
      channelId_(channel_id), stats_(stats),
      readQ_(timing.readQueueDepth,
             timing.ranksPerChannel * timing.banksPerRank()),
      writeQ_(timing.writeQueueDepth,
              timing.ranksPerChannel * timing.banksPerRank())
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

    const std::uint32_t per_rank = timing.banksPerRank();
    const std::uint64_t rank_bits =
        per_rank >= 64 ? ~std::uint64_t(0)
                       : (std::uint64_t(1) << per_rank) - 1;
    ranks_.resize(timing.ranksPerChannel);
    banks_.resize(timing.ranksPerChannel * per_rank);
    for (std::uint32_t i = 0; i < timing.ranksPerChannel; ++i) {
        ranks_[i].bankBits = rank_bits << (i * per_rank);
        // Stagger refresh across ranks to avoid artificial alignment.
        ranks_[i].nextRefresh =
            tREFI_ + (tREFI_ / timing.ranksPerChannel) * i;
        for (std::uint32_t f = 0; f < per_rank; ++f) {
            BankState &bank = banks_[i * per_rank + f];
            bank.rank = i;
            bank.casGroup =
                i * timing.bankGroups + f / timing.banksPerGroup;
        }
    }
    nextCasGroup_.assign(timing.ranksPerChannel * timing.bankGroups, 0);
    writeBlocks_.reserve(timing.writeQueueDepth);
    wakeIdx_ = sim.addClocked(this, timing.clkRatio);
}

DramChannel::BankQueue::BankQueue(std::uint32_t depth,
                                  std::uint32_t banks)
    : slots_(depth), banks_(banks)
{
    fatal_if(banks > 64, "a DRAM channel holds at most 64 banks, not ",
             banks);
    for (std::uint32_t i = 0; i < depth; ++i)
        slots_[i].next = i + 1 < depth ? i + 1 : None;
    freeHead_ = depth > 0 ? 0 : None;
}

void
DramChannel::BankQueue::push(QEntry &&e, bool on_open_row)
{
    const std::uint32_t idx = freeHead_;
    Slot &slot = slots_[idx];
    freeHead_ = slot.next;
    const std::uint32_t b = e.globalBank;
    e.seq = nextSeq_++;
    slot.entry = std::move(e);

    BankList &list = banks_[b];
    slot.prev = list.tail;
    slot.next = None;
    if (list.tail == None)
        list.head = idx;
    else
        slots_[list.tail].next = idx;
    list.tail = idx;

    const std::uint64_t bit = std::uint64_t(1) << b;
    activeMask_ |= bit;
    if (on_open_row && !(hitMask_ & bit)) {
        list.hit = idx;
        hitMask_ |= bit;
    }
    ++size_;
}

DramChannel::QEntry
DramChannel::BankQueue::takeHit(std::uint32_t bank)
{
    BankList &list = banks_[bank];
    const std::uint32_t idx = list.hit;
    Slot &slot = slots_[idx];
    QEntry e = std::move(slot.entry);

    // The next hit is the oldest younger entry on the same row.
    std::uint32_t next_hit = slot.next;
    while (next_hit != None && slots_[next_hit].entry.row != e.row)
        next_hit = slots_[next_hit].next;
    if (next_hit == None)
        hitMask_ &= ~(std::uint64_t(1) << bank);
    list.hit = next_hit;

    // Unlink from the bank's list.
    if (slot.prev != None)
        slots_[slot.prev].next = slot.next;
    else
        list.head = slot.next;
    if (slot.next != None)
        slots_[slot.next].prev = slot.prev;
    else
        list.tail = slot.prev;
    slot.next = freeHead_;
    freeHead_ = idx;
    --size_;
    if (list.head == None)
        activeMask_ &= ~(std::uint64_t(1) << bank);
    return e;
}

void
DramChannel::BankQueue::opened(std::uint32_t bank, std::uint64_t row)
{
    BankList &list = banks_[bank];
    std::uint32_t idx = list.head;
    while (idx != None && slots_[idx].entry.row != row)
        idx = slots_[idx].next;
    const std::uint64_t bit = std::uint64_t(1) << bank;
    if (idx == None) {
        hitMask_ &= ~bit;
    } else {
        list.hit = idx;
        hitMask_ |= bit;
    }
}

void
DramChannel::push(BankQueue &queue, const MemRequestPtr &req,
                  const DramCoord &coord, Addr block, Tick now)
{
    QEntry entry;
    entry.req = req;
    entry.row = coord.row;
    entry.block = block;
    entry.globalBank =
        coord.rank * timing_.banksPerRank() + coord.flatBank(timing_);
    entry.enqueued = now;
    const BankState &bank = banks_[entry.globalBank];
    queue.push(std::move(entry), bank.open && bank.row == coord.row);
}

bool
DramChannel::enqueue(const MemRequestPtr &req, const DramCoord &coord,
                     PortWaiter *waiter)
{
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
        // Only a queued entry changes what tick() will do; merges,
        // forwards and refusals leave the schedule alone.
        sim_.pokeClocked(wakeIdx_);
        push(writeQ_, req, coord, block, now);
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
    sim_.pokeClocked(wakeIdx_);
    push(readQ_, req, coord, block, now);
    setWake(0);
    return true;
}

void
DramChannel::maybeRefresh(std::uint32_t rank_idx)
{
    RankState &rank = ranks_[rank_idx];
    const Tick now = curTick();
    if (now < rank.nextRefresh)
        return;

    // Catch up the schedule in case we were idle across intervals; a
    // single tRFC penalty stands in for the missed ones, which is
    // harmless because the channel was empty while they were due.
    while (rank.nextRefresh <= now)
        rank.nextRefresh += tREFI_;

    const std::uint32_t per_rank = timing_.banksPerRank();
    BankState *const first = &banks_[rank_idx * per_rank];
    BankState *const last = first + per_rank;
    Tick start = now;
    for (BankState *bank = first; bank != last; ++bank) {
        if (bank->open)
            start = std::max(start, bank->nextPrecharge + tRP_);
    }
    rank.refreshUntil = start + tRFC_;
    for (BankState *bank = first; bank != last; ++bank) {
        bank->open = false;
        bank->nextActivate =
            std::max(bank->nextActivate, rank.refreshUntil);
    }
    readQ_.closed(rank.bankBits);
    writeQ_.closed(rank.bankBits);
    ++stats_.refreshes;
    stats_.energyPj += timing_.eRefresh;
}

void
DramChannel::issueCas(QEntry entry, bool is_write, Tick now)
{
    BankState &bank = banks_[entry.globalBank];

    if (entry.sawConflict)
        ++stats_.rowConflicts;
    else if (entry.sawActivate)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    nextCasGroup_[bank.casGroup] = now + tCCD_;

    // Data-bus busy interval: burst start to burst end on this
    // channel's track (category Dram, opt-in: --trace-dram).
    if (auto *sink = tracer();
        sink && sink->enabled(trace::Cat::Dram)) {
        const Tick start = now + (is_write ? tCWL_ : tCL_);
        sink->complete(
            tracePid(), name(), burstName(entry.req->category, is_write),
            trace::Cat::Dram, start, tBL_,
            {{"addr", static_cast<double>(entry.req->addr)},
             {"row", static_cast<double>(entry.row)},
             {"bank", static_cast<double>(entry.globalBank %
                                          timing_.banksPerRank())}});
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
DramChannel::tryIssueCas(BankQueue &queue, bool is_write, Tick &wake)
{
    if (queue.empty())
        return false;

    const Tick now = curTick();

    // Channel-global constraints are identical for every entry of
    // one direction; failing them here skips the per-bank checks.
    // The bound contributed is the gate itself — conservative (bank
    // locals may push further out), which only shortens the sleep.
    const Tick cas_lat = is_write ? tCWL_ : tCL_;
    Tick gate = is_write ? nextWriteCas_ : nextReadCas_;
    if (busBusyUntil_ > cas_lat)
        gate = std::max(gate, busBusyUntil_ - cas_lat);
    if (now < gate) {
        wake = std::min(wake, gate);
        return false;
    }

    // FR-FCFS pass 1: oldest request that can CAS right now. Only an
    // entry on its bank's open row can, and every such entry of one
    // bank faces the same bank, rank and bank-group gates, so each
    // bank's oldest one (its hit entry) stands for the rest. A bank
    // whose gates are shut contributes the exact tick they all pass;
    // closed or conflicting banks need a PRE/ACT first, which
    // tryPrepareBank bounds.
    std::uint32_t best = 0;
    std::uint64_t best_seq = ~std::uint64_t(0);
    for (std::uint64_t mask = queue.hitMask(); mask != 0;
         mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(mask));
        const BankState &bank = banks_[b];
        Tick t = std::max(ranks_[bank.rank].refreshUntil,
                          is_write ? bank.nextWrite : bank.nextRead);
        t = std::max(t, nextCasGroup_[bank.casGroup]);
        if (now < t) {
            wake = std::min(wake, t);
        } else if (const std::uint64_t seq = queue.hit(b).seq;
                   seq < best_seq) {
            best = b;
            best_seq = seq;
        }
    }
    if (best_seq == ~std::uint64_t(0))
        return false;

    QEntry entry = queue.takeHit(best);
    if (is_write)
        writeBlocks_.erase(entry.block);
    // The freed slot can admit a parked sender.
    (is_write ? writeWaiters_ : readWaiters_).wakeAll();
    issueCas(std::move(entry), is_write, now);
    return true;
}

bool
DramChannel::tryPrepareBank(BankQueue &queue, Tick &wake)
{
    const Tick now = curTick();

    // FR-FCFS pass 2: advance the bank FSM (PRE or ACT) for the oldest
    // request whose bank is not ready. Only one command per cycle.
    // Only a bank's oldest entry may move the bank, so a younger entry
    // cannot steal it and livelock the older one; among the heads that
    // can move their bank now, the oldest does. A head already on its
    // bank's open row waits on CAS timing only (bounded by the CAS
    // pass). Each blocked head contributes the exact tick its failing
    // gate opens.
    std::uint32_t best = 0;
    std::uint64_t best_seq = ~std::uint64_t(0);
    for (std::uint64_t mask = queue.activeMask(); mask != 0;
         mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(mask));
        if (queue.headIsHit(b))
            continue;
        const BankState &bank = banks_[b];
        const RankState &rank = ranks_[bank.rank];

        Tick t;
        if (now < rank.refreshUntil) {
            t = rank.refreshUntil;
        } else if (bank.open) {
            // Open on another row: precharge first.
            t = bank.nextPrecharge;
        } else {
            // The four-activate window only binds once four ACTs have
            // actually happened (a zero-initialised window must not
            // throttle the first activates after reset).
            t = std::max(bank.nextActivate, rank.nextAct);
            if (rank.actCount >= rank.actWindow.size())
                t = std::max(
                    t, rank.actWindow[rank.actWindowIdx] + tFAW_);
        }
        if (now < t) {
            wake = std::min(wake, t);
        } else if (const std::uint64_t seq = queue.head(b).seq;
                   seq < best_seq) {
            best = b;
            best_seq = seq;
        }
    }
    if (best_seq == ~std::uint64_t(0))
        return false;

    QEntry &entry = queue.head(best);
    BankState &bank = banks_[best];
    if (bank.open) {
        bank.open = false;
        bank.nextActivate = std::max(bank.nextActivate, now + tRP_);
        entry.sawConflict = true;
        const std::uint64_t bit = std::uint64_t(1) << best;
        readQ_.closed(bit);
        writeQ_.closed(bit);
        return true;
    }
    RankState &rank = ranks_[bank.rank];
    stats_.energyPj += timing_.eActPre;
    bank.open = true;
    bank.row = entry.row;
    bank.nextRead = std::max(bank.nextRead, now + tRCD_);
    bank.nextWrite = std::max(bank.nextWrite, now + tRCD_);
    bank.nextPrecharge = std::max(bank.nextPrecharge, now + tRAS_);
    rank.nextAct = now + tRRD_;
    rank.actWindow[rank.actWindowIdx] = now;
    rank.actWindowIdx = (rank.actWindowIdx + 1) % rank.actWindow.size();
    ++rank.actCount;
    if (!entry.sawConflict)
        entry.sawActivate = true;
    readQ_.opened(best, bank.row);
    writeQ_.opened(best, bank.row);
    return true;
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

    for (std::uint32_t r = 0; r < ranks_.size(); ++r)
        maybeRefresh(r);

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

    BankQueue &primary = drainingWrites_ ? writeQ_ : readQ_;
    BankQueue &secondary = drainingWrites_ ? readQ_ : writeQ_;
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
