/**
 * @file
 * The NOMAD back-end hardware (Section III-D).
 *
 * The back-end receives page-copy commands (cache fills, writebacks)
 * from the front-end OS routines through a memory-mapped interface
 * register, traces each outstanding command in a PCSHR (page copy
 * status/information holding register), and stages sub-blocks through
 * page copy buffers. Each PCSHR carries the paper's fields: valid (V),
 * type (T), PFN, CFN, priority (P) + prioritized sub-block index (PI)
 * for critical-data-first handling, the read-issued (R), in-buffer (B)
 * and partial-write (W) 64-bit vectors, and a small set of sub-entries
 * holding accesses that data-missed while the page was in transfer.
 *
 * The area-optimized design of Section IV-B7 is modelled by allowing
 * fewer page copy buffers than PCSHRs: a PCSHR only starts transfers
 * once a buffer is assigned to it (FIFO).
 */

#ifndef NOMAD_DRAMCACHE_NOMAD_BACKEND_HH
#define NOMAD_DRAMCACHE_NOMAD_BACKEND_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dram/device.hh"
#include "dramcache/copy_transaction.hh"
#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/waiter.hh"

namespace nomad
{

namespace harden
{
class Snapshot;
} // namespace harden

/** Back-end construction parameters. */
struct NomadBackEndParams
{
    std::uint32_t numPcshrs = 8;
    /** Page copy buffers; 0 means one per PCSHR (non-area-optimized). */
    std::uint32_t numBuffers = 0;
    std::uint32_t subEntriesPerPcshr = 4;
    /** Outstanding source-side reads per PCSHR. */
    std::uint32_t maxReadsInFlight = 8;
    /** CPU cycles to service a read from a page copy buffer. */
    Tick bufferReadLatency = 12;
    /** Set P/PI from the interface offset (critical-data-first). */
    bool criticalDataFirst = true;
    /** Also bump sub-blocks demanded by later sub-entries (ablation). */
    bool dynamicReprioritize = false;
    /**
     * Abort-and-refetch a page copy that made no forward progress for
     * this many ticks: orphan its in-flight reads (generation bump),
     * clear the R vector back to the in-buffer state, and re-issue the
     * remaining source reads. 0 disables; the recovery path for lost
     * DRAM responses under fault injection (docs/HARDENING.md).
     */
    Tick copyTimeoutTicks = 0;
};

/**
 * One PCSHR: the shared transactional copy core (V bit, PFN/CFN tags,
 * R/B/W/local vectors, generation, progress clock — see
 * copy_transaction.hh) plus the PCSHR-specific fields of Fig 6 (T bit,
 * priority, buffer assignment, parked sub-entries).
 */
struct Pcshr : CopyTransaction
{
    /** An access that data-missed while its sub-block was in transfer. */
    struct SubEntry
    {
        bool valid = false;
        bool isWrite = false;
        std::uint32_t subIdx = 0;
        MemRequestPtr req;
    };

    bool isWriteback = false;    ///< T bit (V is `valid`).
    bool pri = false;            ///< P bit.
    std::uint32_t priIdx = 0;    ///< PI field.
    int bufferId = -1;
    std::function<void(Tick)> onDone;
    std::vector<SubEntry> subEntries;
};

/** One back-end instance (one per channel group when distributed). */
class NomadBackEnd : public CopyPump<NomadBackEnd, Pcshr>
{
  public:
    using AcceptCallback = std::function<void(Tick)>;
    using CompleteCallback = std::function<void(Tick)>;

    /** Outcome of the data-hit verification of a DC access (Fig 6). */
    enum class AccessResult
    {
        DataHit,  ///< No PCSHR tag match; proceed to on-package DRAM.
        Serviced, ///< Completed against the page copy buffer.
        Pending,  ///< Parked in a sub-entry until its sub-block lands.
        Reject,   ///< Sub-entries full; the caller's waiter is parked.
    };

    NomadBackEnd(Simulation &sim, const std::string &name,
                 const NomadBackEndParams &params, DramDevice &on_package,
                 DramDevice &off_package);

    /**
     * Offload a cache-fill command (Algorithm 1 line 6). @p accepted
     * fires when a PCSHR is allocated: immediately if one is free,
     * later if the interface is busy (the front-end handler stalls for
     * that long inside its critical section). @p done fires when the
     * whole page resides in the DRAM cache.
     */
    void sendCacheFill(PageNum cfn, PageNum pfn,
                       std::uint32_t pri_sub_block,
                       AcceptCallback accepted,
                       CompleteCallback done = nullptr);

    /** Offload a writeback command (Algorithm 2 line 10). */
    void sendWriteback(PageNum cfn, PageNum pfn, AcceptCallback accepted,
                       CompleteCallback done = nullptr);

    /**
     * Verify the presence of data for an on-package demand access by
     * comparing the CFN against all PCSHR tags (Section III-D3). The
     * request is completed/parked internally unless the result is
     * DataHit (forward to HBM) or Reject, which parks @p waiter until
     * a sub-entry, a buffer or the PCSHR itself frees.
     */
    AccessResult access(const MemRequestPtr &req, PortWaiter *waiter);

    /** True while a cache-fill for @p cfn is outstanding. */
    bool hasFillInFlight(PageNum cfn) const;

    std::uint32_t
    freePcshrs() const
    {
        return static_cast<std::uint32_t>(slots_.size()) - active_;
    }

    /** Valid PCSHRs right now (occupancy gauge for the sampler). */
    std::uint32_t activePcshrs() const { return active_; }

    /** Commands queued behind the busy interface right now. */
    std::size_t interfaceQueueDepth() const { return waitQ_.size(); }

    /** Interface state (S) bit: busy while commands wait for a PCSHR. */
    bool interfaceBusy() const { return !waitQ_.empty(); }

    void tick() final;
    bool idle() const final { return active_ == 0 && waitQ_.empty(); }

    const NomadBackEndParams &params() const { return params_; }

    /**
     * Verify leak-freedom after a drain: every PCSHR and buffer back
     * in its pool, no queued command, no parked sub-entry. Throws
     * harden::SimError under --check-invariants.
     */
    void checkDrained() const;

    /** Contribute PCSHR state to a structured diagnostic snapshot. */
    void snapshot(harden::Snapshot &snap) const;

    // Statistics --------------------------------------------------------
    stats::Scalar fillCommands;
    stats::Scalar writebackCommands;
    stats::Average interfaceWait; ///< Command wait for a free PCSHR.
    stats::Scalar dataHits;       ///< Accesses with no PCSHR match.
    stats::Scalar dataMisses;     ///< Accesses matching a PCSHR.
    stats::Scalar bufferReadHits; ///< Read data-misses served from PCB.
    stats::Scalar bufferWrites;   ///< Write data-misses into the PCB.
    stats::Scalar pendingServed;  ///< Sub-entry reads served on arrival.
    stats::Scalar subEntryRejects; ///< Refused access attempts.
    stats::Scalar readsSkipped;   ///< Source reads avoided by the R vec.
    stats::Scalar staleReadsDropped;
    stats::Average fillLatency;   ///< Command accept to page complete.
    /** Copy-timeout abort-and-refetch events. Only registered when a
     *  hardening context is attached (keeps default stats unchanged). */
    stats::Scalar copyRetries;

  private:
    friend class CopyPump<NomadBackEnd, Pcshr>;
    using SubEntry = Pcshr::SubEntry;

    struct WaitingCmd
    {
        bool isWriteback = false;
        PageNum cfn = InvalidPage;
        PageNum pfn = InvalidPage;
        std::uint32_t priIdx = 0;
        Tick arrived = 0;
        std::uint64_t traceId = 0;
        AcceptCallback accepted;
        CompleteCallback done;
    };

    void submit(bool is_writeback, PageNum cfn, PageNum pfn,
                std::uint32_t pri_idx, AcceptCallback accepted,
                CompleteCallback done);
    void allocate(WaitingCmd cmd, int slot);
    void assignBuffer(int slot);
    /** Deposit a DC write of sub-block @p idx in @p p's buffer. */
    void absorbWrite(Pcshr &p, std::uint32_t idx);
    /** Park a data-missed access in a free sub-entry, or refuse it. */
    AccessResult parkAccess(Pcshr &p, const MemRequestPtr &req,
                            std::uint32_t idx, PortWaiter *waiter);
    void servePendingReads(Pcshr &p, std::uint32_t idx, Tick when);
    void releasePcshr(int slot);
    void drainBlockedCommands();
    void tracePcshrCounter();

    // CopyPump hooks (see copy_transaction.hh).
    DramDevice &nearPort() { return onPackage_; }
    DramDevice &farPort() { return offPackage_; }
    static bool writesBack(const Pcshr &p) { return p.isWriteback; }
    /** Transfers start once a page copy buffer is assigned. */
    static bool mayTransfer(const Pcshr &p) { return p.bufferId >= 0; }
    int nextRead(const Pcshr &p) const;
    bool admitArrival(Pcshr &p, std::uint32_t idx);
    void onArrival(Pcshr &p, std::uint32_t idx, Tick when);
    void completeCopy(int slot);
    void onReadArrive(int slot, std::uint64_t gen, std::uint32_t idx,
                      Tick when);

    NomadBackEndParams params_;
    DramDevice &onPackage_;
    DramDevice &offPackage_;

    /**
     * cfn -> PCSHR slot for in-flight cache fills (the CAM of Fig 6
     * flattened into an open-addressed table). Writeback PCSHRs are
     * excluded: access() only intercepts fills.
     */
    FlatMap<int> fillIndex_;
    std::uint32_t freeBuffers_;
    std::deque<int> bufferWaiters_; ///< PCSHR slots awaiting a buffer.
    std::deque<WaitingCmd> waitQ_;  ///< Commands behind the interface.
    /** Accesses refused with full sub-entries. */
    WaiterList accessWaiters_;
    std::string pcshrCounterName_;  ///< Cached trace counter name.
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_NOMAD_BACKEND_HH
