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
#include <cstdint>
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
        std::uint64_t row = 0;
        Addr block = 0;           ///< blockAlign(addr), merge/forward key.
        std::uint64_t seq = 0;    ///< Arrival order within its queue.
        Tick enqueued = 0;
        std::uint32_t globalBank = 0; ///< rank * banksPerRank + flatBank.
        bool sawConflict = false; ///< We had to PRE for this entry.
        bool sawActivate = false; ///< We had to ACT for this entry.
    };

    /**
     * One command queue (reads or writes), indexed by global bank so
     * the FR-FCFS passes never walk the whole queue:
     *
     *  - entries live in a fixed slab of `depth` slots, linked into
     *    one FIFO list per bank, each stamped with its arrival `seq`;
     *  - activeMask() has a bit for every bank that holds entries;
     *  - per bank, the oldest entry on the bank's open row (its "hit"
     *    entry), valid where hitMask() has the bank's bit set. The
     *    channel keeps it current on push, take, ACT, PRE and refresh.
     */
    class BankQueue
    {
      public:
        BankQueue(std::uint32_t depth, std::uint32_t banks);

        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }

        /** Append @p e to its bank's list; @p on_open_row says the
         *  bank currently holds @p e's row open. */
        void push(QEntry &&e, bool on_open_row);

        /** Remove and return @p bank's hit entry. */
        QEntry takeHit(std::uint32_t bank);

        /** @p bank opened @p row: its hit entry is the oldest on it. */
        void opened(std::uint32_t bank, std::uint64_t row);
        /** The banks in @p mask closed (precharge or refresh). */
        void closed(std::uint64_t mask) { hitMask_ &= ~mask; }

        /** Banks with a hit entry, one bit per global bank. */
        std::uint64_t hitMask() const { return hitMask_; }
        const QEntry &
        hit(std::uint32_t bank) const
        {
            return slots_[banks_[bank].hit].entry;
        }

        /** Banks holding entries, one bit per global bank. */
        std::uint64_t activeMask() const { return activeMask_; }
        /** The oldest entry of a bank in activeMask(). */
        QEntry &
        head(std::uint32_t bank)
        {
            return slots_[banks_[bank].head].entry;
        }
        /** True when @p bank's oldest entry is on its open row. */
        bool
        headIsHit(std::uint32_t bank) const
        {
            return (hitMask_ >> bank & 1) &&
                   banks_[bank].hit == banks_[bank].head;
        }

      private:
        static constexpr std::uint32_t None = ~std::uint32_t(0);

        struct Slot
        {
            QEntry entry;
            std::uint32_t prev = None; ///< Bank list (free list: unused).
            std::uint32_t next = None; ///< Bank list, or free list.
        };

        struct BankList
        {
            std::uint32_t head = None;
            std::uint32_t tail = None;
            std::uint32_t hit = None; ///< Valid iff the hitMask_ bit.
        };

        std::vector<Slot> slots_;
        std::vector<BankList> banks_;
        std::uint32_t freeHead_ = None;
        std::uint32_t size_ = 0;
        std::uint64_t nextSeq_ = 0;
        std::uint64_t activeMask_ = 0;
        std::uint64_t hitMask_ = 0;
    };

    struct BankState
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick nextActivate = 0;
        Tick nextRead = 0;
        Tick nextWrite = 0;
        Tick nextPrecharge = 0;
        std::uint32_t rank = 0;     ///< Index into ranks_.
        std::uint32_t casGroup = 0; ///< Index into nextCasGroup_.
    };

    struct RankState
    {
        std::array<Tick, 4> actWindow{}; ///< tFAW sliding window.
        std::uint32_t actWindowIdx = 0;
        std::uint64_t actCount = 0;      ///< tFAW applies after 4 ACTs.
        Tick nextAct = 0;                ///< tRRD constraint.
        Tick nextRefresh = 0;
        Tick refreshUntil = 0;
        std::uint64_t bankBits = 0; ///< This rank's global-bank bits.
    };

    void maybeRefresh(std::uint32_t rank_idx);
    /** Queue a new entry for @p req in @p queue. */
    void push(BankQueue &queue, const MemRequestPtr &req,
              const DramCoord &coord, Addr block, Tick now);
    /**
     * The scheduling passes double as wake-bound collectors: when a
     * pass cannot issue, it lowers @p wake to the earliest tick at
     * which one of its gates could open (conservative — never later
     * than the true earliest, so sleeping until it is always sound).
     */
    bool tryIssueCas(BankQueue &queue, bool is_write, Tick &wake);
    bool tryPrepareBank(BankQueue &queue, Tick &wake);
    void issueCas(QEntry entry, bool is_write, Tick now);


    const DramTiming &timing_;
    MappingScheme mapping_;
    std::uint32_t channelId_;
    DramStats &stats_;

    // Timing parameters pre-converted to CPU ticks.
    Tick tCL_, tCWL_, tRCD_, tRP_, tRAS_, tRTP_, tWR_, tWTR_, tRTW_;
    Tick tCCD_, tRRD_, tFAW_, tRFC_, tREFI_, tBL_;

    std::vector<RankState> ranks_;
    /** Every bank of the channel, by global bank index. */
    std::vector<BankState> banks_;
    BankQueue readQ_;
    BankQueue writeQ_;
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
    /** Per (rank, bank group) CAS-to-CAS constraint (tCCD). */
    std::vector<Tick> nextCasGroup_;

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
