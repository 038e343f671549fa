/**
 * @file
 * TiD: the HW-based tags-in-DRAM comparison scheme (Section IV-A).
 *
 * Models the tag-management mechanism of Unison Cache: a set-associative
 * DRAM cache with large (1KB) lines, tags stored in on-package DRAM
 * rows next to the data, and an idealised way predictor. Every DC
 * access spends an extra on-package burst reading the tag (issued in
 * parallel with the data, so it costs bandwidth rather than latency)
 * and another updating metadata (LRU/dirty/tag install). Misses are
 * handled by non-blocking MSHRs fetching the line from off-package
 * memory critical-block-first; dirty victims stream back.
 */

#ifndef NOMAD_DRAMCACHE_TID_SCHEME_HH
#define NOMAD_DRAMCACHE_TID_SCHEME_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "dramcache/scheme.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** TiD construction parameters. */
struct TidParams
{
    std::uint64_t capacityBytes = 64ULL * 1024 * 1024;
    std::uint32_t lineBytes = 1024;
    std::uint32_t assoc = 4;
    std::uint32_t mshrs = 32;
    /** One per block of the line plus slack for repeat accesses. */
    std::uint32_t targetsPerMshr = 24;
    std::uint32_t maxReadsInFlight = 8; ///< Per in-flight line fill.
    std::uint32_t maxWritebackJobs = 64;
    /** Metadata update bursts per DC access (LRU/dirty/tag install). */
    double metadataWriteProb = 1.0;
    /** DC controller request queue (absorbs transient backpressure). */
    std::uint32_t controllerQueueDepth = 64;
};

/** Unison-style HW-based DRAM cache. */
class TidScheme : public DramCacheScheme, public Clocked
{
  public:
    TidScheme(Simulation &sim, const std::string &name,
              const TidParams &params, DramDevice &off_package,
              DramDevice &on_package, PageTable &page_table);

    SchemeKind kind() const override { return SchemeKind::Tid; }

    bool tryAccess(const MemRequestPtr &req,
                   PortWaiter *waiter) override;

    void tick() final;
    bool
    idle() const final
    {
        return activeMshrs_ == 0 && writebackJobs_.empty() &&
               pendingQ_.empty();
    }

    /**
     * Skip-ahead hook: tick() pumps the controller queue, blocked
     * MSHRs, and writeback jobs; with none of those present every
     * in-flight fill progresses purely through arrival callbacks. A
     * pump pass that changed nothing sleeps until an arrival, an
     * access or a refusing DRAM channel wakes it (pump_).
     */
    Tick
    nextWorkTick() const
    {
        if (pendingQ_.empty() && writebackJobs_.empty() &&
            blockedMshrs_ == 0) {
            return MaxTick;
        }
        return pump_.asleep() ? MaxTick : Tick(0);
    }

    const TidParams &params() const { return params_; }

    bool quiesced() const override { return idle(); }

    void
    checkDrained() const override
    {
        NOMAD_CHECK(*this, activeMshrs_ == 0,
                    "MSHR leak: ", activeMshrs_,
                    " still active at drain");
        NOMAD_CHECK(*this, writebackJobs_.empty(),
                    "writeback leak: ", writebackJobs_.size(),
                    " jobs still streaming at drain");
        NOMAD_CHECK(*this, pendingQ_.empty(),
                    "DC controller leak: ", pendingQ_.size(),
                    " accesses still queued at drain");
        NOMAD_CHECK(*this, waiters_.parked() == 0,
                    "waiter leak: ", waiters_.parked(),
                    " LLC senders still parked at drain");
    }

    void
    snapshot(harden::Snapshot &snap) const override
    {
        snap.set(name_, "activeMshrs",
                 static_cast<double>(activeMshrs_));
        snap.set(name_, "writebackJobs",
                 static_cast<double>(writebackJobs_.size()));
        snap.set(name_, "pendingAccesses",
                 static_cast<double>(pendingQ_.size()));
    }

    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    // Statistics --------------------------------------------------------
    stats::Scalar dcHits;
    stats::Scalar dcMisses;
    stats::Scalar dcMissesMerged;
    stats::Scalar conflictEvictions; ///< Valid victims replaced.
    stats::Scalar dirtyWritebacks;
    stats::Scalar tagReads;          ///< Metadata read bursts.
    stats::Scalar tagWrites;         ///< Metadata write bursts.
    stats::Scalar rejects; ///< Refused access attempts.

    /** Valid MSHRs right now (occupancy gauge for the sampler). */
    std::uint32_t activeMshrs() const { return activeMshrs_; }

    double
    hitRate() const
    {
        const double total = dcHits.value() + dcMisses.value() +
                             dcMissesMerged.value();
        return total > 0 ? dcHits.value() / total : 0.0;
    }

  private:
    struct TagEntry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;     ///< Off-package line number.
        std::uint64_t lastUse = 0;
    };

    struct Target
    {
        MemRequestPtr req;
        std::uint32_t blockIdx = 0;
    };

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;       ///< Off-package line-aligned address.
        std::uint64_t set = 0;
        std::uint32_t way = 0;
        std::uint32_t priIdx = 0;
        std::uint64_t rVec = 0;
        std::uint64_t bVec = 0;
        std::uint64_t wVec = 0;
        std::uint32_t readsInFlight = 0;
        std::uint64_t generation = 0;
        bool makeDirty = false;  ///< A merged write dirties the line.
        /**
         * The last pump hit DRAM-queue backpressure. Only blocked
         * MSHRs need the per-tick retry pump: an unblocked MSHR makes
         * progress purely through fill-arrival callbacks, so pumping
         * it again before one arrives is a guaranteed no-op.
         */
        bool blocked = false;
        std::uint64_t traceId = 0; ///< Lifecycle span (0 = untraced).
        Tick startedAt = 0;
        std::vector<Target> targets;
    };

    struct WritebackJob
    {
        std::uint64_t id = 0;
        Addr hbmLineAddr = 0;
        Addr ddrLineAddr = 0;
        std::uint64_t rVec = 0;
        std::uint64_t bVec = 0;
        std::uint64_t wVec = 0;
        std::uint32_t readsInFlight = 0;
    };

    std::uint64_t setOf(Addr line_addr) const;
    std::uint64_t tagOf(Addr line_addr) const;
    Addr hbmAddrOf(std::uint64_t set, std::uint32_t way,
                   std::uint32_t block_idx) const;
    TagEntry &entry(std::uint64_t set, std::uint32_t way);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr();
    bool attemptAccess(const MemRequestPtr &req);
    void issueMetadataRead(std::uint64_t set);
    void issueMetadataWrite(std::uint64_t set);
    bool serviceHit(const MemRequestPtr &req, std::uint64_t set,
                    std::uint32_t way);
    void startFill(Mshr *mshr);
    void onFillBlock(std::size_t slot, std::uint64_t gen,
                     std::uint32_t idx, Tick when);
    void traceMshrCounter();
    void pumpMshr(Mshr &m, std::size_t slot);
    void pumpWriteback(WritebackJob &job);
    WritebackJob *findWriteback(std::uint64_t id);

    std::uint32_t
    blocksPerLine() const
    {
        return params_.lineBytes / BlockBytes;
    }

    TidParams params_;
    std::uint64_t numSets_;
    std::vector<TagEntry> tags_;
    std::vector<Mshr> mshrs_;
    /** lineAddr -> MSHR slot for valid MSHRs (open-addressed CAM). */
    FlatMap<std::uint32_t> mshrIndex_;
    std::uint32_t activeMshrs_ = 0;
    /** MSHRs with Mshr::blocked set (skip-ahead gate). */
    std::uint32_t blockedMshrs_ = 0;
    std::vector<WritebackJob> writebackJobs_;
    std::uint64_t nextWritebackId_ = 1;
    std::deque<MemRequestPtr> pendingQ_;
    std::uint64_t useCounter_ = 0;
    Rng metaRng_{0x7161d};
    std::string mshrCounterName_; ///< Cached trace counter name.
    /** This scheme's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
    /** Sleep gate of tick()'s pump; parks its DRAM refusals. */
    PumpGate pump_;
    /** LLC senders refused by a full controller queue. */
    WaiterList waiters_;

    /** External entry point: poke the kernel, owe the pump a pass. */
    void
    touch()
    {
        sim_.pokeClocked(wakeIdx_);
        pump_.touch();
    }
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_TID_SCHEME_HH
