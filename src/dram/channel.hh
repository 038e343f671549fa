/**
 * @file
 * One DRAM channel: command queues, FR-FCFS scheduling, and bank/rank
 * timing enforcement.
 *
 * The controller issues at most one command (ACT, PRE, RD, WR, REF) per
 * controller cycle. Reads complete tCL + tBL after CAS issue; writes are
 * posted (their callback fires at queue acceptance) but still occupy the
 * command/data path for timing. All internal timestamps are CPU ticks;
 * DramTiming parameters are converted once at construction.
 */

#ifndef NOMAD_DRAM_CHANNEL_HH
#define NOMAD_DRAM_CHANNEL_HH

#include <array>
#include <deque>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/stats.hh"
#include "dram/timing.hh"
#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** A single DRAM channel controller. */
class DramChannel : public SimObject
{
  public:
    DramChannel(Simulation &sim, const std::string &name,
                const DramTiming &timing, MappingScheme mapping,
                std::uint32_t channel_id, DramStats &stats);

    /**
     * Offer a request to this channel. Returns false when the relevant
     * queue is full, parking @p waiter until a retry could succeed: a
     * slot of that queue frees at CAS issue, or a newly queued write
     * could forward to the read or absorb the write. Writes complete
     * (posted) on acceptance; reads that hit a queued write are
     * forwarded without a DRAM access. @p coord is the request's
     * pre-decoded address (the device already decoded it to route
     * here; re-decoding per queue entry was a measurable slice of
     * simulation time).
     */
    bool enqueue(const MemRequestPtr &req, const DramCoord &coord,
                 PortWaiter *waiter);

    /** Advance one controller cycle. */
    void tick();

    /** True when both queues and all in-flight state are drained. */
    bool
    idle() const
    {
        return readQ_.empty() && writeQ_.empty();
    }

    /**
     * Earliest tick at which this channel can issue a command (or run
     * refresh bookkeeping), given its current queues and bank state.
     * Every DRAM gate is a pure time threshold over state that only
     * tick() and enqueue() mutate, so after a pass in which nothing
     * issued, tick() computes the bound once and sleeps on it; a
     * value <= now means the channel must evaluate this cycle.
     */
    Tick nextWorkTick() const { return nextWake_; }

    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /** Senders parked on a full queue (drain audit: 0). */
    std::size_t
    parkedSenders() const
    {
        return readWaiters_.parked() + writeWaiters_.parked();
    }

  private:
    struct QEntry
    {
        MemRequestPtr req;
        DramCoord coord;
        Addr block = 0;           ///< blockAlign(addr), merge/forward key.
        std::uint32_t flatBank = 0;   ///< coord.flatBank(), cached.
        std::uint32_t globalBank = 0; ///< rank * banksPerRank + flatBank.
        Tick enqueued = 0;
        bool sawConflict = false; ///< We had to PRE for this entry.
        bool sawActivate = false; ///< We had to ACT for this entry.
    };

    struct BankState
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick nextActivate = 0;
        Tick nextRead = 0;
        Tick nextWrite = 0;
        Tick nextPrecharge = 0;
    };

    struct RankState
    {
        std::vector<BankState> banks;
        std::array<Tick, 4> actWindow{}; ///< tFAW sliding window.
        std::uint32_t actWindowIdx = 0;
        std::uint64_t actCount = 0;      ///< tFAW applies after 4 ACTs.
        Tick nextAct = 0;                ///< tRRD constraint.
        Tick nextRefresh = 0;
        Tick refreshUntil = 0;
    };

    void maybeRefresh(RankState &rank);
    /**
     * The scheduling passes double as wake-bound collectors: when a
     * pass cannot issue, it lowers @p wake to the earliest tick at
     * which one of its gates could open (conservative — never later
     * than the true earliest, so sleeping until it is always sound).
     */
    bool tryIssueCas(std::deque<QEntry> &queue, bool is_write,
                     Tick &wake);
    bool tryPrepareBank(std::deque<QEntry> &queue, Tick &wake);
    /** Bank/rank-local CAS constraints; the channel-global ones
     *  (turnaround, bus overlap) are hoisted into tryIssueCas. */
    bool canCasLocal(const QEntry &entry, bool is_write,
                     Tick now) const;
    void issueCas(QEntry entry, bool is_write, Tick now);

    BankState &
    bankOf(const QEntry &e)
    {
        return ranks_[e.coord.rank].banks[e.flatBank];
    }

    const BankState &
    bankOf(const QEntry &e) const
    {
        return ranks_[e.coord.rank].banks[e.flatBank];
    }

    const DramTiming &timing_;
    MappingScheme mapping_;
    std::uint32_t channelId_;
    DramStats &stats_;

    // Timing parameters pre-converted to CPU ticks.
    Tick tCL_, tCWL_, tRCD_, tRP_, tRAS_, tRTP_, tWR_, tWTR_, tRTW_;
    Tick tCCD_, tRRD_, tFAW_, tRFC_, tREFI_, tBL_;

    std::vector<RankState> ranks_;
    std::deque<QEntry> readQ_;
    std::deque<QEntry> writeQ_;
    /**
     * Blocks with a queued write. Merging keeps at most one queued
     * write per block, so presence answers the merge and forward
     * checks without scanning writeQ_.
     */
    FlatMap<bool> writeBlocks_;
    /** Senders refused by a full read / write queue. */
    WaiterList readWaiters_;
    WaiterList writeWaiters_;

    /** Data bus occupancy (end of the latest scheduled burst). */
    Tick busBusyUntil_ = 0;
    /** Earliest next read / write CAS (bus-turnaround constraints). */
    Tick nextReadCas_ = 0;
    Tick nextWriteCas_ = 0;
    /** Per-rank, per-bank-group CAS-to-CAS constraint (tCCD). */
    std::vector<std::vector<Tick>> nextCasBankGroup_;

    /**
     * Per-global-bank claim stamps for tryPrepareBank: a bank whose
     * stamp equals the current epoch is already targeted by an older
     * entry this pass. Replaces a per-call heap-allocated claim list
     * with an O(1) check and no clearing between passes.
     */
    std::vector<std::uint64_t> claimStamp_;
    std::uint64_t claimEpoch_ = 0;

    /** Write-drain hysteresis state. */
    bool drainingWrites_ = false;

    /** All writes to nextWake_ funnel through here. */
    void setWake(Tick t) { nextWake_ = t; }

    /**
     * Sleep bound: tick() is a provable no-op strictly before this.
     * Maintained by tick() (computed after a pass that issued nothing)
     * and reset by enqueue() (new entries can be issuable at once).
     */
    Tick nextWake_ = 0;
    /** This channel's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_DRAM_CHANNEL_HH
