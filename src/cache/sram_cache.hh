/**
 * @file
 * A non-blocking, write-back, write-allocate set-associative SRAM cache.
 *
 * Outstanding misses are tracked in MSHRs (Kroft-style lockup-free
 * operation): multiple requests to the same block merge into one fill;
 * independent misses proceed in parallel until the MSHR pool drains.
 * Lines are tagged with (address space, block address) so OS-managed
 * DRAM cache schemes can cache both physical-frame (off-package) and
 * cache-frame (on-package) addresses simultaneously.
 */

#ifndef NOMAD_CACHE_SRAM_CACHE_HH
#define NOMAD_CACHE_SRAM_CACHE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** Victim-selection policy. */
enum class CacheReplPolicy : std::uint8_t
{
    Lru,
    Fifo,
};

/** Construction parameters of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    Tick hitLatency = 4;          ///< Lookup-to-data CPU cycles.
    std::uint32_t mshrs = 16;     ///< Outstanding distinct misses.
    std::uint32_t targetsPerMshr = 8;
    CacheReplPolicy policy = CacheReplPolicy::Lru;
};

/** One level of SRAM cache. */
class SramCache : public SimObject, public Clocked, public MemPort
{
  public:
    SramCache(Simulation &sim, const std::string &name,
              const CacheParams &params, MemPort *downstream);

    /**
     * Service a request. Returns false when the cache cannot take it
     * (MSHRs or merge targets exhausted) and parks @p waiter until a
     * fill, a full-line install or a range invalidation could let a
     * retry through.
     */
    bool tryAccess(const MemRequestPtr &req,
                   PortWaiter *waiter) override;

    /** Retry the downstream send queue once woken. */
    void tick() final;

    /**
     * Skip-ahead hook: tick() only retries the downstream send queue,
     * so an empty queue means nothing to do until some access path
     * refills it (always from another component's tick or an event),
     * and a parked head waits for its downstream wake.
     */
    Tick
    nextWorkTick() const
    {
        return sendQ_.empty() || sendWaiter_.blocked() ? MaxTick
                                                       : Tick(0);
    }

    bool
    idle() const final
    {
        return activeMshrs_ == 0 && sendQ_.empty();
    }

    /**
     * Invalidate every line of @p space in [base, base+len); dirty lines
     * are written back downstream first (posted). Pending fills into the
     * range are marked discard-on-arrival. Returns the number of lines
     * invalidated. Used by flush_cache_range() on DC frame eviction.
     */
    std::uint32_t invalidateRange(MemSpace space, Addr base,
                                  std::uint64_t len);

    /** True when the block currently resides in the cache. */
    bool isCached(MemSpace space, Addr addr) const;

    /** Upstream senders parked on this cache (drain audit: 0). */
    std::size_t parkedSenders() const { return waiters_.parked(); }

    const CacheParams &params() const { return params_; }

    // Statistics --------------------------------------------------------
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar missesMerged;   ///< Requests merged into a live MSHR.
    stats::Scalar writebacks;
    stats::Scalar rejects;        ///< Refused access attempts.
    stats::Scalar invalidations;  ///< Lines killed by invalidateRange.
    stats::Average missLatency;   ///< Allocate-to-fill (CPU ticks).

    double
    hitRate() const
    {
        const double total = hits.value() + misses.value() +
                             missesMerged.value();
        return total > 0 ? hits.value() / total : 0.0;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        MemSpace space = MemSpace::OffPackage;
        Addr block = 0;          ///< Block-aligned address.
        std::uint64_t lastUse = 0;
        std::uint64_t inserted = 0;
    };

    struct Mshr
    {
        bool valid = false;
        bool discard = false;    ///< Range-invalidated while in flight.
        bool fillIssued = false;
        bool wantDirty = false;  ///< A merged write marks the fill dirty.
        MemSpace space = MemSpace::OffPackage;
        Addr block = 0;
        Tick allocated = 0;
        std::vector<MemRequestPtr> targets;
    };

    Line *findLine(MemSpace space, Addr block);
    Mshr *findMshr(MemSpace space, Addr block);
    Mshr *allocMshr(MemSpace space, Addr block);
    void handleFill(Mshr *mshr, Tick when);
    void installLine(MemSpace space, Addr block, bool dirty);
    void pushDownstream(const MemRequestPtr &req);
    void issueFill(Mshr *mshr);

    std::size_t
    setIndex(Addr block) const
    {
        return static_cast<std::size_t>((block >> BlockShift) % numSets_);
    }

    /**
     * (space, block) packed into one word so way probes compare a
     * single 64-bit key. Blocks are 64B-aligned, leaving the low six
     * bits free: bit 0 flags a valid entry, bit 1 carries the space.
     * 0 therefore never collides with a live line.
     */
    static Addr
    keyOf(MemSpace space, Addr block)
    {
        return block | (static_cast<Addr>(space) << 1) | 1;
    }

    CacheParams params_;
    MemPort *downstream_;
    std::size_t numSets_;
    std::vector<Line> lines_;    ///< numSets_ x assoc, row-major.
    /** Packed identity per line (keyOf, 0 = invalid), same indexing
     *  as lines_. Way probes scan this dense array — one cache line
     *  per set at assoc 8 — instead of striding the full structs. */
    std::vector<Addr> lineKeys_;
    std::vector<Mshr> mshrs_;
    /** keyOf -> MSHR slot for valid, non-discarded MSHRs. */
    FlatMap<std::uint32_t> mshrIndex_;
    std::uint32_t activeMshrs_ = 0;
    std::uint64_t useCounter_ = 0;

    /** Downstream requests awaiting acceptance (fills, writebacks). */
    std::deque<MemRequestPtr> sendQ_;
    /** Parks the send queue's refused head on its downstream. */
    PortWaiter sendWaiter_;
    /** Upstream senders this cache refused. */
    WaiterList waiters_;
    /** This cache's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;
};

} // namespace nomad

#endif // NOMAD_CACHE_SRAM_CACHE_HH
