/**
 * @file
 * The line-cache controller shared by TiD, Alloy and TDRAM.
 *
 * All three cache fixed-size lines in on-package DRAM behind one
 * controller: a request queue that parks refused LLC senders, an MSHR
 * CAM that merges accesses to in-flight lines, a set-associative tag
 * probe with LRU victims, and non-blocking line fills. A line is
 * lineBytes / 64 blocks, fetched from off-package memory critical
 * block first with at most maxReadsInFlight reads per line; each
 * target completes as its block arrives while the block is installed
 * on-package in the background. Dirty victims stream back block by
 * block, read on-package then written off-package.
 *
 * The schemes differ only in policy, supplied through four hooks:
 * launchFetch()/retryLaunch() decide when a miss's fetch starts (TiD
 * issues its metadata bursts first; Alloy launches under a miss
 * predictor and serializes behind the tag probe on a mispredict;
 * TDRAM launches after an on-die tag check), onHitAccess() adds
 * hit-path side traffic and recordOutcome() trains a predictor. Alloy
 * and TDRAM are the 1-block case (lineBytes = 64, one read in
 * flight).
 */

#ifndef NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
#define NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dramcache/scheme.hh"
#include "harden/check.hh"
#include "harden/diag.hh"
#include "sim/flat_map.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** Line-cache geometry, MSHR and queue parameters. */
struct LineCacheParams
{
    std::uint64_t capacityBytes = 64ULL * 1024 * 1024;
    std::uint32_t lineBytes = BlockBytes; ///< 64B multiple, <= 64 blocks.
    std::uint32_t assoc = 1;
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    /** Off-package reads in flight per line fill (and per writeback). */
    std::uint32_t maxReadsInFlight = 1;
    std::uint32_t maxWritebackJobs = 64;
    /** DC controller request queue (absorbs transient backpressure). */
    std::uint32_t controllerQueueDepth = 64;
};

/**
 * Throw harden::SimError(ConfigError) unless the controller can run
 * @p p; @p prefix names the config block in the message ("tid", ...).
 */
void validateLineCache(const std::string &prefix,
                       const LineCacheParams &p);

/** Base of the line-cache schemes. */
class LineCacheScheme : public DramCacheScheme, public Clocked
{
  public:
    LineCacheScheme(Simulation &sim, const std::string &name,
                    const LineCacheParams &params,
                    DramDevice &off_package, DramDevice &on_package,
                    PageTable &page_table);

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

    bool quiesced() const override { return idle(); }
    void checkDrained() const override;
    void snapshot(harden::Snapshot &snap) const override;
    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    // Statistics --------------------------------------------------------
    stats::Scalar dcHits;
    stats::Scalar dcMisses;
    stats::Scalar dcMissesMerged;
    stats::Scalar conflictEvictions; ///< Valid victims replaced.
    stats::Scalar dirtyWritebacks;
    stats::Scalar rejects; ///< Refused access attempts.

  protected:
    struct Target
    {
        MemRequestPtr req;
        std::uint32_t blockIdx = 0;
    };

    struct Mshr
    {
        bool valid = false;
        /** The fetch launched: the block pump owns the MSHR. */
        bool launched = false;
        /**
         * The last launch or pump hit DRAM-queue backpressure. Only
         * blocked MSHRs need the per-tick retry: an unblocked one
         * makes progress purely through arrival callbacks.
         */
        bool blocked = false;
        Addr lineAddr = 0;      ///< Off-package line-aligned address.
        std::uint64_t set = 0;
        std::uint32_t way = 0;
        std::uint32_t priIdx = 0; ///< The demanded (critical) block.
        std::uint64_t rVec = 0;   ///< Blocks read off-package.
        std::uint64_t bVec = 0;   ///< Blocks arrived (serveable).
        std::uint64_t wVec = 0;   ///< Blocks installed on-package.
        std::uint32_t readsInFlight = 0;
        std::uint64_t generation = 0;
        std::uint64_t traceId = 0; ///< Lifecycle span (0 = untraced).
        Tick startedAt = 0;
        std::vector<Target> targets;
    };

    /**
     * Start the off-package fetch for a fresh miss. The default
     * issues it immediately; subclasses interpose their launch
     * policy (metadata, predictor, tag-check delay) and eventually
     * call issueFetch().
     */
    virtual void launchFetch(std::size_t slot) { issueFetch(slot); }

    /**
     * Retry a launch that blocked before issueFetch() (only reachable
     * when a subclass's launch policy can backpressure).
     */
    virtual void retryLaunch(std::size_t slot) { issueFetch(slot); }

    /**
     * A tag-hit demand access to @p line_addr was accepted on-package
     * (called before recordOutcome). Subclass hook for hit-path side
     * traffic.
     */
    virtual void onHitAccess(Addr line_addr) { (void)line_addr; }

    /** Observe the access outcome (predictor training). */
    virtual void recordOutcome(bool hit) { (void)hit; }

    /** Launch the fetch: hand the MSHR to the block pump. */
    void issueFetch(std::size_t slot);

    /** Mark @p m blocked/unblocked, keeping the skip-ahead count. */
    void setBlocked(Mshr &m, bool blocked);

    Addr
    hbmAddrOf(std::uint64_t set, std::uint32_t way,
              std::uint32_t block_idx = 0) const
    {
        return (set * params_.assoc + way) * params_.lineBytes +
               static_cast<Addr>(block_idx) * BlockBytes;
    }

    std::uint64_t
    setOf(Addr line_addr) const
    {
        return (line_addr / params_.lineBytes) % numSets_;
    }

    std::vector<Mshr> mshrs_;
    /** Sleep gate of tick()'s pump; parks its DRAM refusals. */
    PumpGate pump_;

    /**
     * External entry point: poke the kernel and owe the pump a pass.
     * Subclass launch policies running from delayed callbacks must
     * call it before touching MSHR state.
     */
    void
    touch()
    {
        sim_.pokeClocked(wakeIdx_);
        pump_.touch();
    }

  private:
    struct TagEntry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0; ///< Off-package line number.
        std::uint64_t lastUse = 0;
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

    TagEntry &
    entry(std::uint64_t set, std::uint32_t way)
    {
        return tags_[set * params_.assoc + way];
    }

    /** Mask with one bit per block of a line. */
    std::uint64_t
    allBlocks() const
    {
        const std::uint32_t blocks = params_.lineBytes / BlockBytes;
        return blocks == 64 ? ~0ULL : (1ULL << blocks) - 1;
    }

    bool attemptAccess(const MemRequestPtr &req);
    bool serviceHit(const MemRequestPtr &req, Addr line_addr,
                    std::uint64_t set, std::uint32_t way);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr();
    void pumpMshr(std::size_t slot);
    void onFillBlock(std::size_t slot, std::uint64_t gen,
                     std::uint32_t idx, Tick when);
    void releaseMshr(std::size_t slot);
    void traceMshrCounter();
    void pumpWriteback(WritebackJob &job);
    WritebackJob *findWriteback(std::uint64_t id);

    LineCacheParams params_;
    /** This scheme's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
    std::uint64_t numSets_ = 0;
    std::vector<TagEntry> tags_;
    /** lineAddr -> MSHR slot for valid MSHRs (open-addressed CAM). */
    FlatMap<std::uint32_t> mshrIndex_;
    std::uint32_t activeMshrs_ = 0;
    /** MSHRs with Mshr::blocked set (skip-ahead gate). */
    std::uint32_t blockedMshrs_ = 0;
    std::vector<WritebackJob> writebackJobs_;
    std::uint64_t nextWritebackId_ = 1;
    std::deque<MemRequestPtr> pendingQ_;
    std::uint64_t useCounter_ = 0;
    std::string mshrCounterName_; ///< Cached trace counter name.
    /** LLC senders refused by a full controller queue. */
    WaiterList waiters_;
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_LINE_CACHE_SCHEME_HH
