/**
 * @file
 * The transactional page-copy core and the one pump around it, shared
 * by both copy engines: the NOMAD back-end's PCSHRs (and, through
 * them, TDC's copy engine) and the tiering migration slots
 * (src/tiering).
 *
 * A page copy is a transaction over 64 sub-blocks tracked by three bit
 * vectors — read-issued (R), in-buffer (B), partial-write (W) — plus a
 * local-overwrite vector, an in-flight read count, and a generation
 * number that orphans stale read arrivals. CopyTransaction holds that
 * state and its two recovery operations: rewindLost() re-fetches the
 * reads a forward-progress timeout presumes lost, and restart()
 * re-fetches everything after the source page mutated under the copy.
 *
 * CopyPump moves the data: source reads, the response fault filter,
 * destination writes, completion, the round-robin pass with its sleep
 * gate, and the copy-timeout abort-and-refetch. Retry accounting
 * (copyRetries and friends) stays with the owning engine: each
 * registers its stat conditionally against its own hardening context.
 */

#ifndef NOMAD_DRAMCACHE_COPY_TRANSACTION_HH
#define NOMAD_DRAMCACHE_COPY_TRANSACTION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harden/check.hh"
#include "harden/fault.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "sim/waiter.hh"

namespace nomad
{

/** All 64 sub-blocks of a page, as a full bit vector. */
constexpr std::uint64_t AllSubBlocks = ~0ULL;

/**
 * One page-copy transaction between far page `pfn` and near frame
 * `cfn`: its slot state and sub-block copy state.
 */
struct CopyTransaction
{
    bool valid = false;        ///< The slot holds a live copy.
    PageNum pfn = InvalidPage; ///< Far (off-package) page.
    PageNum cfn = InvalidPage; ///< Near (on-package) frame.
    std::uint64_t rVec = 0;     ///< Read-issued vector.
    std::uint64_t bVec = 0;     ///< In-buffer vector.
    std::uint64_t wVec = 0;     ///< Partial-write vector.
    std::uint64_t localVec = 0; ///< Locally overwritten sub-blocks.
    std::uint32_t readsInFlight = 0;
    /** Bumped on rewind/restart/release; a read arrival carrying an
     *  older generation is dropped as stale by the owning engine. */
    std::uint64_t generation = 0;
    Tick acceptedAt = 0;   ///< Copy accepted (latency base).
    Tick lastProgress = 0; ///< Last accepted read/write (timeout base).
    std::uint64_t traceId = 0; ///< Lifecycle span id (0 = untraced).
    bool stuck = false;    ///< Injected: responses are swallowed.

    /** Start a fresh copy between @p far and @p near in this slot
     *  (the owning engine draws `stuck`). */
    void
    arm(PageNum far, PageNum near, Tick now)
    {
        valid = true;
        pfn = far;
        cfn = near;
        rVec = bVec = wVec = localVec = 0;
        readsInFlight = 0;
        acceptedAt = lastProgress = now;
    }

    /** All sub-blocks written to the destination: the copy is done. */
    bool copyComplete() const { return wVec == AllSubBlocks; }

    /**
     * Abort-and-refetch after lost reads (copy timeout): in-flight
     * reads are presumed lost (dropped DRAM responses, stuck copies
     * under --fault-spec), so the generation bump orphans them and R
     * rewinds to B — exactly the sub-blocks that actually landed — for
     * re-issue. Buffered and written data stay valid.
     */
    void
    rewindLost(Tick now)
    {
        ++generation;
        readsInFlight = 0;
        rVec = bVec;
        stuck = false;
        lastProgress = now;
    }

    /**
     * Abort-and-refetch after the source page mutated under the copy
     * (a demand write to a page with an in-flight tiering promotion):
     * everything staged so far is stale, so rewind all vectors and
     * refetch from scratch.
     */
    void
    restart(Tick now)
    {
        rewindLost(now);
        rVec = bVec = wVec = localVec = 0;
    }

    /**
     * Release the slot. The generation bump orphans reads still in
     * flight (a cancellation can release mid-copy); their arrivals are
     * dropped without touching this slot, so the in-flight accounting
     * is zeroed here, not by them.
     */
    void
    retire()
    {
        valid = false;
        traceId = 0;
        ++generation;
        stuck = false;
        readsInFlight = 0;
        rVec = bVec = wVec = localVec = 0;
    }
};

/**
 * The page-copy pump over an engine's slots, dispatched statically
 * (CRTP): @p Engine derives from CopyPump<Engine, Slot> and @p Slot
 * from CopyTransaction. A slot copies far page `pfn` into near frame
 * `cfn` (a fill or promotion, Category::Fill) or, when the engine's
 * writesBack(slot) holds, the other way (Category::Writeback).
 *
 * The engine supplies what differs between the two engines:
 *  - nearPort() / farPort(): the two tiers' ports;
 *  - writesBack(slot): the copy direction;
 *  - mayTransfer(slot): whether the slot may move data yet (default:
 *    always; a PCSHR needs a page copy buffer);
 *  - nextRead(slot): the next sub-block to read, called while some
 *    sub-block is unread (default: the lowest unread one);
 *  - admitArrival(slot, idx): false drops a current-generation
 *    arrival before it sets B;
 *  - onArrival(slot, idx, when): what an arrival does after setting B
 *    (default: nothing);
 *  - completeCopy(slot): completion once W is full, release included;
 *  - onReadArrive(slot, gen, idx, when): the out-of-line arrival entry
 *    point, which calls arrive();
 *  - params().maxReadsInFlight / copyTimeoutTicks, idle(), and the
 *    staleReadsDropped / copyRetries stats.
 *
 * Every pump member is forced inline, so a host profile charges its
 * time to the owning engine's out-of-line entry points (tick(),
 * onReadArrive(), the command and access paths).
 */
template <class Engine, class Slot>
class CopyPump : public SimObject, public Clocked
{
  public:
    /**
     * Skip-ahead hook: the pump sleeps with no copy in flight, or
     * while a pass is provably a no-op (pump_ asleep: the last pass
     * changed nothing, and its port refusals are parked). The hardened
     * paths (fault-injected blocking, copy-timeout scans) run every
     * cycle by design, so a hardened engine never skips.
     */
    [[gnu::always_inline]] Tick
    nextWorkTick() const
    {
        if (injector_ != nullptr || engine().params().copyTimeoutTicks > 0)
            return 0;
        if (engine().idle())
            return MaxTick;
        return pump_.asleep() ? MaxTick : Tick(0);
    }

    /**
     * Batch-account elided no-op edges: within a sleeping span the
     * only per-tick effect is the fairness cursor rotation, which is
     * replicated arithmetically (slot visiting order is irrelevant
     * while every visit is a no-op, but the cursor must match the
     * ticked-through value once real work resumes).
     */
    [[gnu::always_inline]] void
    skipTicks(Tick n)
    {
        if (active_ == 0)
            return;
        rrCursor_ = static_cast<std::uint32_t>(
            (rrCursor_ + n) % slots_.size());
    }

    /** The slot the next pass visits first. */
    std::uint32_t rrCursor() const { return rrCursor_; }

  protected:
    CopyPump(Simulation &sim, const std::string &name,
             std::uint32_t num_slots)
        : SimObject(sim, name), slots_(num_slots),
          injector_(sim.harden() ? sim.harden()->injector : nullptr)
    {}

    static bool bit(std::uint64_t v, std::uint32_t i) { return (v >> i) & 1; }
    static void setBit(std::uint64_t &v, std::uint32_t i) { v |= 1ULL << i; }

    Engine &engine() { return static_cast<Engine &>(*this); }
    const Engine &engine() const { return static_cast<const Engine &>(*this); }

    // Default hooks (an engine member of the same name replaces one).
    bool mayTransfer(const Slot &) const { return true; }

    int nextRead(const Slot &s) const { return __builtin_ctzll(~s.rVec); }

    void onArrival(Slot &, std::uint32_t, Tick) {}

    [[gnu::always_inline]] int
    findFreeSlot() const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].valid)
                return static_cast<int>(i);
        }
        return -1;
    }

    /** Claim free slot @p s for a copy between @p pfn and @p cfn
     *  accepted now. */
    [[gnu::always_inline]] void
    claimSlot(Slot &s, PageNum pfn, PageNum cfn)
    {
        panic_if(s.valid, "allocating a busy copy slot");
        pump_.touch();
        s.arm(pfn, cfn, curTick());
        s.stuck = injector_ != nullptr && injector_->makeStuck();
        ++active_;
    }

    /** Free slot @p s; reads still in flight turn stale. */
    [[gnu::always_inline]] void
    freeSlot(Slot &s)
    {
        pump_.touch();
        pump_.progress();
        s.retire();
        --active_;
    }

    /**
     * One tick of the pump: the copy-timeout scan, then a round-robin
     * pass over the slots so one hot copy cannot starve the others'
     * source-read issue slots.
     */
    [[gnu::always_inline]] void
    pumpSlots()
    {
        if (engine().params().copyTimeoutTicks > 0)
            checkCopyTimeouts();
        if (active_ == 0)
            return;
        const auto n = static_cast<std::uint32_t>(slots_.size());
        if (pump_.asleep()) {
            // Asleep: the pass below is a proven no-op; only the
            // fairness cursor advances (see skipTicks).
            rrCursor_ = (rrCursor_ + 1) % n;
            return;
        }
        pump_.beginPass();
        for (std::uint32_t off = 0; off < n; ++off) {
            const std::uint32_t slot = (rrCursor_ + off) % n;
            if (!slots_[slot].valid)
                continue;
            issueReads(static_cast<int>(slot));
            drainWrites(static_cast<int>(slot));
            maybeComplete(static_cast<int>(slot));
        }
        rrCursor_ = (rrCursor_ + 1) % n;
        // A pass with no issue and no completion leaves all slot state
        // untouched; further passes stay no-ops until an arrival, an
        // engine entry point, or a refusing port wakes the pump.
        pump_.endPass();
    }

    /** Issue source reads up to the in-flight limit. */
    [[gnu::always_inline]] void
    issueReads(int slot)
    {
        Slot &s = slots_[slot];
        if (!engine().mayTransfer(s))
            return;
        const bool from_near = engine().writesBack(s);
        while (s.readsInFlight < engine().params().maxReadsInFlight &&
               s.rVec != AllSubBlocks) {
            const auto idx =
                static_cast<std::uint32_t>(engine().nextRead(s));
            const std::uint64_t gen = s.generation;
            if (!offer(s, from_near, idx, false,
                       [this, slot, gen, idx](Tick when) {
                           engine().onReadArrive(slot, gen, idx, when);
                       }))
                return; // Parked until the source frees a slot.
            setBit(s.rVec, idx);
            ++s.readsInFlight;
            pump_.progress();
        }
    }

    /**
     * A source read landed. Fault filter: current-generation responses
     * may be swallowed (stuck copy), dropped, or delayed before the
     * model sees them. Lost responses keep readsInFlight held — the
     * data is gone, not late — so recovery is the copy timeout's
     * abort-and-refetch.
     */
    [[gnu::always_inline]] void
    arrive(int slot, std::uint64_t gen, std::uint32_t idx, Tick when)
    {
        if (injector_) {
            const Slot &s = slots_[slot];
            if (s.valid && s.generation == gen) {
                if (s.stuck)
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

    [[gnu::always_inline]] void
    deliverRead(int slot, std::uint64_t gen, std::uint32_t idx, Tick when)
    {
        sim_.pokeClocked(wakeIdx_);
        // An arrival frees a read-in-flight slot, so the pump owes this
        // slot a pass.
        pump_.touch();
        Slot &s = slots_[slot];
        if (!s.valid || s.generation != gen) {
            // Orphaned by a completion and slot recycle, an abort, or a
            // cancellation: the late arrival carries no usable data.
            ++engine().staleReadsDropped;
            return;
        }
        panic_if(s.readsInFlight == 0, "read arrival without issue");
        --s.readsInFlight;
        NOMAD_CHECK(*this, bit(s.rVec, idx),
                    "sub-block ", idx, " arrived without a read issued");
        if (!engine().admitArrival(s, idx))
            return;
        setBit(s.bVec, idx);
        s.lastProgress = when;
        NOMAD_CHECK(*this, (s.bVec & ~s.rVec) == 0,
                    "B vector not a subset of R after arrival of "
                    "sub-block ", idx);
        engine().onArrival(s, idx, when);
        drainWrites(slot);
        maybeComplete(slot);
    }

    /** Write every buffered, unwritten sub-block to the destination. */
    [[gnu::always_inline]] void
    drainWrites(int slot)
    {
        Slot &s = slots_[slot];
        if (!s.valid)
            return;
        const bool to_near = !engine().writesBack(s);
        NOMAD_CHECK(*this, (s.wVec & ~s.bVec) == 0,
                    "W vector not a subset of B for pfn ", s.pfn,
                    " cfn ", s.cfn);
        std::uint64_t ready = s.bVec & ~s.wVec;
        while (ready != 0) {
            const auto idx =
                static_cast<std::uint32_t>(__builtin_ctzll(ready));
            if (!offer(s, to_near, idx, true))
                return; // Parked until the destination frees a slot.
            setBit(s.wVec, idx);
            s.lastProgress = curTick();
            pump_.progress();
            ready &= ready - 1;
        }
    }

    [[gnu::always_inline]] void
    maybeComplete(int slot)
    {
        const Slot &s = slots_[slot];
        if (s.valid && s.copyComplete())
            engine().completeCopy(slot);
    }

    /**
     * Abort-and-refetch every transferring copy that made no forward
     * progress for the copy timeout (docs/HARDENING.md): orphan its
     * in-flight reads by bumping the generation — a late arrival is
     * then dropped as stale — and rewind R to the sub-blocks that
     * actually landed so issueReads() re-fetches the lost ones.
     */
    [[gnu::always_inline]] void
    checkCopyTimeouts()
    {
        const Tick now = curTick();
        const Tick timeout = engine().params().copyTimeoutTicks;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            Slot &s = slots_[i];
            // A slot that may not transfer yet (a PCSHR without a
            // buffer) is legitimately parked, not stuck on lost reads.
            if (!s.valid || !engine().mayTransfer(s) ||
                now - s.lastProgress <= timeout)
                continue;
            pump_.touch();
            s.rewindLost(now);
            ++engine().copyRetries;
            if (auto *sink = s.traceId ? tracer() : nullptr) {
                sink->asyncInstant(tracePid(), "copy_retry",
                                   trace::Cat::Copy, s.traceId, now,
                                   {{"slot", static_cast<double>(i)}});
            }
            issueReads(static_cast<int>(i));
        }
    }

    std::vector<Slot> slots_;
    std::uint32_t active_ = 0; ///< Valid slots.
    std::uint32_t rrCursor_ = 0; ///< Round-robin fairness cursor.
    /**
     * Pump sleep: once a full pass issued nothing and completed
     * nothing (its port refusals parked on the refusing targets),
     * every further pass is a no-op (by induction, state being
     * otherwise frozen) until an engine entry point mutates slot
     * state (touch) or a refusing target frees a slot (wake).
     */
    PumpGate pump_;
    /** Fault decision engine, latched from the hardening context at
     *  construction; null on the default (unhardened) path. */
    harden::FaultInjector *injector_ = nullptr;
    /** The engine's clocked-component handle (for pokeClocked). */
    Simulation::ClockedHandle wakeIdx_ = Simulation::InvalidClockedHandle;

  private:
    /** Offer sub-block @p idx of the near frame (or far page) of @p s
     *  to that tier's port; a refusal parks the pump on the target. */
    template <class Callback = std::nullptr_t>
    [[gnu::always_inline]] bool
    offer(const Slot &s, bool near, std::uint32_t idx, bool is_write,
          Callback &&cb = nullptr)
    {
        const PageNum page = near ? s.cfn : s.pfn;
        const Addr addr = (static_cast<Addr>(page) << PageShift) +
                          static_cast<Addr>(idx) * BlockBytes;
        auto req = makeRequest(
            addr, is_write,
            engine().writesBack(s) ? Category::Writeback : Category::Fill,
            near ? MemSpace::OnPackage : MemSpace::OffPackage, curTick(),
            std::forward<Callback>(cb));
        return near ? engine().nearPort().tryAccess(req, pump_.waiter())
                    : engine().farPort().tryAccess(req, pump_.waiter());
    }
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_COPY_TRANSACTION_HH
