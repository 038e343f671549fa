/**
 * @file
 * The top-level simulation driver.
 *
 * Simulation owns the event queue, the statistics registry, and the list
 * of clocked components, and advances time with a wake-queue kernel.
 * Each component registers the exact tick of its next real work (a
 * short timing wheel of per-tick bitsets for near wakes, backed by a
 * binary-heap calendar for far ones; FIFO-stable within a tick in
 * registration order) and is not touched at all until that tick fires.
 * External state changes re-register the component through
 * pokeClocked(). Elided no-op clock edges are batch-accounted through
 * skipTicks(), so the result is equivalent to ticking every component
 * on every one of its clock edges (docs/PERFORMANCE.md has the
 * soundness argument). While every component is idle, time jumps
 * straight to the next event.
 */

#ifndef NOMAD_SIM_SIMULATION_HH
#define NOMAD_SIM_SIMULATION_HH

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "event_queue.hh"
#include "stats.hh"
#include "types.hh"

namespace nomad
{

namespace trace
{
class TraceSink;
} // namespace trace

namespace harden
{
struct Context;
} // namespace harden

/**
 * Interface of components driven on a fixed clock.
 *
 * The clock period is expressed in CPU ticks; a period of 1 means the
 * component runs at the CPU clock, a period of 2 at half of it, etc.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance the component by one of its own clock cycles. */
    virtual void tick() = 0;

    /**
     * True when the component has no pending work; used to fast-forward
     * over globally idle periods. Components that are cheap to tick can
     * simply keep the default.
     */
    virtual bool idle() const { return false; }
};

/** Top-level driver owning simulated time. */
class Simulation
{
  public:
    /** Identifies a registered clocked component (see addClocked). */
    using ClockedHandle = std::uint32_t;
    static constexpr ClockedHandle InvalidClockedHandle = ~0u;

    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    EventQueue &events() { return events_; }
    stats::StatRegistry &statistics() { return stats_; }

    /**
     * Attach an event tracer. The sink is not owned and may be shared
     * by several simulations; @p pid distinguishes this simulation's
     * events (one Perfetto process group per run). Null detaches.
     */
    void
    setTrace(trace::TraceSink *sink, std::uint32_t pid = 0)
    {
        trace_ = sink;
        tracePid_ = pid;
    }

    /** The attached tracer, or nullptr when tracing is off. */
    trace::TraceSink *trace() const { return trace_; }
    std::uint32_t tracePid() const { return tracePid_; }

    /**
     * Attach the hardening context (invariant checking, fault
     * injection, watchdog; see src/harden/check.hh). Not owned; must
     * be set before components that read it are constructed, since
     * they may latch feature decisions (e.g. extra statistics) at
     * build time. Null detaches. Defined in harden/check.hh (it needs
     * Context's members to cache the checks-enabled decision).
     */
    void setHarden(harden::Context *ctx);

    /** The hardening context, or nullptr when hardening is off. */
    harden::Context *harden() const { return harden_; }

    /**
     * Cached `harden() && harden()->checkInvariants`, maintained by
     * setHarden() so every NOMAD_CHECK site costs one bool load
     * instead of two dependent pointer chases.
     */
    bool invariantChecksOn() const { return checksOn_; }

    /** Schedule a callback @p delay ticks from now. */
    void
    schedule(Tick delay, EventQueue::Callback cb)
    {
        events_.schedule(now_ + delay, std::move(cb));
    }

    /**
     * Register a clocked component. @p period is in CPU ticks and
     * @p phase offsets the first edge. The object must outlive the
     * simulation run. Returns the component's handle for pokeClocked().
     *
     * Dispatch is devirtualized at registration: the template binds
     * T::tick / T::idle through non-virtual trampolines, so a final
     * (or non-virtual) tick() on the concrete component type is a
     * direct call — the run loop never goes through the Clocked
     * vtable. Registering through a Clocked* still works and simply
     * keeps the virtual hop.
     *
     * Components may additionally opt into wake scheduling by
     * providing either or both of:
     *
     *   Tick nextWorkTick() const;
     *     The earliest tick at which tick() does real work. A value
     *     <= now means "this cycle"; MaxTick means "only after some
     *     event callback mutates my state". Every clock edge strictly
     *     before the returned tick must be a no-op apart from the
     *     accounting replicated by skipTicks().
     *
     *   void skipTicks(Tick n);
     *     Batch-account @p n elided no-op edges (cycle/stall
     *     counters). Components whose no-op edges have no accounting
     *     at all simply omit it. skipTicks must be a pure function of
     *     component state that is frozen while edges are being elided,
     *     and a no-op whenever idle() is true (all current
     *     implementations are).
     *
     * Under that contract the kernel is equivalent to ticking every
     * component on every one of its clock edges: an elided edge and a
     * ticked no-op edge leave identical state behind.
     *
     * A component that provides nextWorkTick() MUST call pokeClocked()
     * with its handle at the top of every externally-invoked method
     * (and every event callback body) that can change the answer —
     * before mutating any state. The kernel relies on those pokes to
     * flush elided-edge accounting against pre-mutation state, to
     * re-register the wake tick, and to re-read idle() before it
     * decides whether the whole system is idle.
     */
    template <typename T>
    ClockedHandle
    addClocked(T *obj, Tick period = 1, Tick phase = 0)
    {
        panic_if(period == 0, "clock period must be nonzero");
        Entry e{obj,
                [](void *p) { static_cast<T *>(p)->tick(); },
                [](const void *p) {
                    return static_cast<const T *>(p)->idle();
                },
                nullptr, nullptr, period, now_ + phase,
                /*wakeEdge=*/0, /*queued=*/false, /*idleFlag=*/false};
        if constexpr (requires(const T &t) {
                          { t.nextWorkTick() } -> std::same_as<Tick>;
                      }) {
            e.nextWork = [](const void *p) {
                return static_cast<const T *>(p)->nextWorkTick();
            };
        }
        if constexpr (requires(T &t, Tick n) { t.skipTicks(n); }) {
            e.skip = [](void *p, Tick n) {
                static_cast<T *>(p)->skipTicks(n);
            };
        }
        const auto h = static_cast<ClockedHandle>(clocked_.size());
        clocked_.push_back(e);
        const std::size_t words = (clocked_.size() + 63) / 64;
        dueBits_.resize(words, 0);
        idleOwed_.resize(words, 0);
        for (auto &slot : wheel_)
            slot.resize(words, 0);
        return h;
    }

    /**
     * Notify the kernel that component @p h is about to be mutated
     * from outside its own tick(). Must be called BEFORE the mutation:
     * it batch-accounts the component's elided no-op edges against the
     * still-unmutated state, re-registers the component at its
     * earliest clock edge not yet ticked, so a state change can never
     * be slept through, and owes the component an idle() re-read
     * before this tick's fast-forward decision. Spurious pokes are
     * harmless (a wake whose tick() turns out to be a no-op is
     * accounted exactly like an elided edge). No-op between run()
     * calls, whose first tick re-reads every component anyway.
     */
    void
    pokeClocked(ClockedHandle h)
    {
        // Kept to the three checks that retire almost every call so
        // the whole prologue inlines at the (very hot) poke sites:
        // disarmed kernel, self-poke, and the repeat-poke of an entry
        // already firing this tick. Everything else is out of line.
        if (!pokeArmed_)
            return;
        if (static_cast<std::int64_t>(h) == firingIdx_)
            return; // Self-poke mid-tick: the fire path re-registers.
        const Entry &e = clocked_[h];
        if (static_cast<std::int64_t>(h) > firingIdx_) {
            // Repeat-poke of an entry already firing this tick.
            if (e.next == now_ && testBit(dueBits_, h))
                return;
        } else if (e.queued && e.wakeEdge == e.next) {
            // Passed entry already registered at its earliest
            // reachable edge (its settled e.next): nothing to account
            // or move; only the idle re-read is owed.
            setBit(idleOwed_, h);
            return;
        }
        pokeSlow(h);
    }

  private:
    void
    pokeSlow(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        // A due entry with an unsettled lazy tail (e.next < now_) gets
        // past the prologue's repeat-poke test; that tail is accounted
        // below while the pre-mutation state still holds.
        //
        // An entry the fire cursor already passed has consumed its
        // edge at now_, so its earliest unticked edge is the following
        // one. Everyone else can still be ticked this very tick.
        const bool passed = static_cast<std::int64_t>(h) < firingIdx_;
        const Tick bound = passed ? now_ + 1 : now_;
        Tick edge = e.next;
        if (bound > edge) {
            edge = e.period == 1
                       ? bound
                       : edge + (bound - edge + e.period - 1) /
                                    e.period * e.period;
        }
        if (e.next < edge) {
            // Edges strictly before the mutation are no-ops under the
            // pre-mutation state; account them now, while it holds.
            const Tick n = e.period == 1
                               ? edge - e.next
                               : (edge - e.next) / e.period;
            if (e.skip)
                e.skip(e.obj, n);
            e.next = edge;
        }
        if (edge == now_) {
            if (!testBit(dueBits_, h)) {
                setBit(dueBits_, h);
                if (e.queued) {
                    // A near token lives in a wheel slot: clear it
                    // eagerly so slot scans never see stale bits. A
                    // far token is a heap node; those invalidate
                    // lazily through the wakeEdge equality check.
                    if (e.wakeEdge > now_ &&
                        e.wakeEdge - now_ <= WheelSize)
                        clearWheelToken(e.wakeEdge, h);
                    e.queued = false;
                }
            }
        } else if (!e.queued || e.wakeEdge > edge) {
            if (e.queued && e.wakeEdge > now_ &&
                e.wakeEdge - now_ <= WheelSize)
                clearWheelToken(e.wakeEdge, h);
            scheduleWake(edge, h);
        }
        // A due entry re-reads idle() when it fires.
        if (!testBit(dueBits_, h))
            setBit(idleOwed_, h);
    }

  public:
    /**
     * Flush all batch-deferred skip accounting up to now(). Mid-run
     * statistics readers (the sampler's probes above all) call this so
     * they observe exactly the state that ticking every clock edge
     * would have materialized at this event. No-op outside run().
     */
    void
    flushAccounting()
    {
        if (!pokeArmed_)
            return;
        finalizeAll(now_);
    }

    /** Ask the run loop to return after finishing the current tick. */
    void requestStop() { stopRequested_ = true; }

    /**
     * Run until requestStop() is called or @p max_ticks have elapsed.
     * @return the number of ticks simulated by this call.
     */
    Tick
    run(Tick max_ticks = MaxTick)
    {
        stopRequested_ = false;
        const Tick start = now_;
        const Tick end =
            (max_ticks == MaxTick) ? MaxTick : now_ + max_ticks;
        bool flushed = false;

        while (!stopRequested_ && now_ < end) {
            events_.advanceTo(now_);

            const Tick T = now_;
            if (!pokeArmed_) {
                resumeVisit(T);
                pokeArmed_ = true;
            } else {
                firePhase(T);
            }
            settleIdle();

            // All idle: only an event can create work, so clock edges
            // up to the next event carry none and time jumps there
            // without registering anyone's wake. skipTicks() is a
            // no-op on an idle component (a registration-time
            // contract), so settling the account later at the next
            // fire charges exactly nothing. Otherwise the earliest
            // registered wake also bounds the jump, and so does end
            // before the dead-stop test: a busy system waiting on
            // nothing still runs to end, where finalizeAll() settles
            // its accounting.
            Tick target = events_.nextEventTick();
            if (busyCount_ != 0)
                target = std::min({target, end, nextWake(T)});
            if (target == MaxTick) {
                // No pending event and every component idle or waiting
                // on one: nothing can ever happen again.
                finalizeAll(T + 1);
                flushed = true;
                if (end != MaxTick)
                    now_ = end;
                break;
            }
            if (target > end)
                target = end;
            now_ = std::max(T + 1, target);
        }
        if (!flushed)
            finalizeAll(now_);
        pokeArmed_ = false; // Between-run pokes are no-ops.
        return now_ - start;
    }

  private:
    struct Entry
    {
        void *obj;
        void (*tick)(void *);
        bool (*idle)(const void *);
        /** Optional skip-ahead hooks (see addClocked); may be null. */
        Tick (*nextWork)(const void *);
        void (*skip)(void *, Tick n);
        Tick period;
        /**
         * First clock edge not yet ticked or skip-accounted. It may
         * lag behind now_ (a lazy tail of provable no-op edges); the
         * account is settled when the entry next fires or is poked.
         */
        Tick next;
        /** Calendar position while queued (see heap_). */
        Tick wakeEdge;
        /** A heap node with t == wakeEdge is live for this entry. */
        bool queued;
        /** Cached idle(); re-read at fires and pokes (busyCount_). */
        bool idleFlag;
    };

    struct HeapNode
    {
        Tick t;
        ClockedHandle h;
    };

    static bool
    heapLater(const HeapNode &a, const HeapNode &b)
    {
        return a.t > b.t; // std::*_heap with "later" = a min-heap.
    }

    static bool
    testBit(const std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        return (bits[h >> 6] >> (h & 63)) & 1ULL;
    }

    static void
    setBit(std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        bits[h >> 6] |= 1ULL << (h & 63);
    }

    static void
    clearBit(std::vector<std::uint64_t> &bits, ClockedHandle h)
    {
        bits[h >> 6] &= ~(1ULL << (h & 63));
    }

    static bool
    slotNonempty(const std::vector<std::uint64_t> &bits)
    {
        for (const std::uint64_t w : bits)
            if (w != 0)
                return true;
        return false;
    }

    /**
     * Register entry @p h's wake at @p edge (which must be > now_).
     * Near wakes land in the timing wheel — a per-tick bitset ring
     * that makes the ubiquitous "again next cycle" reschedule two bit
     * operations instead of a heap push/pop round trip — and far
     * wakes in the binary heap. Within a tick both containers replay
     * registration order (the due-bit walk sorts by handle).
     */
    void
    scheduleWake(Tick edge, ClockedHandle h)
    {
        Entry &e = clocked_[h];
        e.queued = true;
        e.wakeEdge = edge;
        if (edge - now_ <= WheelSize) {
            const Tick s = edge & WheelMask;
            setBit(wheel_[s], h);
            wheelSummary_ |= 1ULL << s;
        } else {
            heap_.push_back({edge, h});
            std::push_heap(heap_.begin(), heap_.end(), heapLater);
        }
    }

    /** Drop entry @p h's wheel token at @p edge (eager, so the
     *  occupancy summary never over-reports). */
    void
    clearWheelToken(Tick edge, ClockedHandle h)
    {
        const Tick s = edge & WheelMask;
        auto &slot = wheel_[s];
        clearBit(slot, h);
        if (!slotNonempty(slot))
            wheelSummary_ &= ~(1ULL << s);
    }

    void
    popHeap()
    {
        std::pop_heap(heap_.begin(), heap_.end(), heapLater);
        heap_.pop_back();
    }

    /**
     * Earliest registered wake after tick @p T. Wheel slots hold edges
     * in (T, T + WheelSize], so rotating the occupancy mask to put
     * slot T+1 at bit 0 turns "first nonempty slot" into one
     * count-trailing-zeros. The heap can still hold an earlier edge
     * (inserted far, reached near), so it is consulted unless the
     * wheel already answers with the unbeatable T+1.
     */
    Tick
    nextWake(Tick T)
    {
        Tick wake = MaxTick;
        if (wheelSummary_ != 0) {
            wake = T + 1 +
                   std::countr_zero(std::rotr(
                       wheelSummary_,
                       static_cast<int>((T + 1) & WheelMask)));
        }
        if (wake > T + 1)
            wake = std::min(wake, heapMinEdge());
        return wake;
    }

    /** Earliest live calendar entry; discards stale nodes. */
    Tick
    heapMinEdge()
    {
        while (!heap_.empty()) {
            const HeapNode &top = heap_.front();
            const Entry &e = clocked_[top.h];
            if (e.queued && e.wakeEdge == top.t)
                return top.t;
            popHeap();
        }
        return MaxTick;
    }

    void
    updateIdleFlag(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        const bool v = e.idle(e.obj);
        if (v != e.idleFlag) {
            e.idleFlag = v;
            busyCount_ += v ? -1 : +1;
        }
    }

    /**
     * Settle entry @p h's lazy tail through the edge at @p T (which
     * must lie on its clock grid), consume that edge with a real
     * tick(), and re-register it from its fresh nextWorkTick().
     */
    void
    fireEntry(ClockedHandle h, Tick T)
    {
        Entry &e = clocked_[h];
        if (e.next < T) {
            const Tick n = (T - e.next) / e.period;
            if (e.skip)
                e.skip(e.obj, n);
        }
        // Advance past this edge before ticking so self-scheduled
        // callbacks observe the edge as consumed.
        e.next = T + e.period;
        firingIdx_ = static_cast<std::int64_t>(h);
        e.tick(e.obj);
        firingIdx_ = -1;
        requeueEntry(h);
        updateIdleFlag(h);
    }

    /** Queue @p h at the first clock edge that can do real work. */
    void
    requeueEntry(ClockedHandle h)
    {
        Entry &e = clocked_[h];
        const Tick w = e.nextWork ? e.nextWork(e.obj) : Tick(0);
        if (w == MaxTick) {
            e.queued = false; // Woken only by a poke.
            return;
        }
        Tick edge = e.next;
        if (w > edge) {
            edge = e.period == 1
                       ? w
                       : edge + (w - edge + e.period - 1) /
                                    e.period * e.period;
        }
        scheduleWake(edge, h);
    }

    /**
     * Fire every component due at tick @p T in registration order.
     * Pokes during the walk may mark entries ahead of the cursor due;
     * they fire in the same pass (bits behind the cursor are never
     * set: a passed entry's next edge is T + period at the earliest).
     */
    void
    firePhase(Tick T)
    {
        // Promote the wheel slots the clock has reached, visiting only
        // occupied ones via the summary mask. A promoted bit whose
        // entry is still registered for a later tick (a wrapped future
        // edge sharing the slot) is kept in place; one whose
        // registration moved or fired is dropped.
        if (wheelSummary_ != 0 && wheelPos_ < T) {
            const Tick span = T - wheelPos_;
            std::uint64_t range = ~0ULL;
            if (span < WheelSize) {
                range = (1ULL << span) - 1;
                range = std::rotl(range,
                                  static_cast<int>((wheelPos_ + 1) &
                                                   WheelMask));
            }
            std::uint64_t todo = wheelSummary_ & range;
            while (todo != 0) {
                const int s = std::countr_zero(todo);
                todo &= todo - 1;
                auto &slot = wheel_[s];
                std::uint64_t any = 0;
                for (std::size_t w = 0; w < slot.size(); ++w) {
                    std::uint64_t m = slot[w];
                    if (m == 0)
                        continue;
                    std::uint64_t keep = 0;
                    while (m != 0) {
                        const std::uint64_t bit = m & (~m + 1);
                        m ^= bit;
                        const auto h = static_cast<ClockedHandle>(
                            (w << 6) + std::countr_zero(bit));
                        Entry &e = clocked_[h];
                        if (e.queued && e.wakeEdge <= T) {
                            e.queued = false;
                            dueBits_[w] |= bit;
                        } else if (e.queued && e.wakeEdge > T) {
                            keep |= bit;
                        }
                    }
                    slot[w] = keep;
                    any |= keep;
                }
                if (any == 0)
                    wheelSummary_ &= ~(1ULL << s);
            }
        }
        wheelPos_ = T;
        while (!heap_.empty() && heap_.front().t <= T) {
            const HeapNode top = heap_.front();
            popHeap();
            Entry &e = clocked_[top.h];
            if (e.queued && e.wakeEdge == top.t) {
                e.queued = false;
                setBit(dueBits_, top.h);
            }
        }
        for (std::size_t w = 0; w < dueBits_.size(); ++w) {
            // The word is re-read every iteration: a fired entry's
            // tick() may poke entries ahead of the cursor due, and
            // those fire this same pass, in handle order.
            while (const std::uint64_t due = dueBits_[w]) {
                const int b = std::countr_zero(due);
                dueBits_[w] = due & (due - 1);
                fireEntry(static_cast<ClockedHandle>((w << 6) + b), T);
            }
        }
    }

    /**
     * The first tick of a run() call: tick every entry whose pending
     * edge is at or behind now_ (edges stranded by an all-idle dead
     * stop catch up with no accounting, which is all skipTicks()
     * charges an idle component), then read every idle flag and
     * rebuild the wake calendar from fresh nextWorkTick() answers.
     * Pokes are disarmed throughout: reading every entry after the
     * walk absorbs both the walk's mutations and any between-run
     * ones, which is why pokes outside run() can be ignored entirely.
     */
    void
    resumeVisit(Tick T)
    {
        heap_.clear();
        std::fill(dueBits_.begin(), dueBits_.end(), 0);
        std::fill(idleOwed_.begin(), idleOwed_.end(), 0);
        for (auto &slot : wheel_)
            std::fill(slot.begin(), slot.end(), 0);
        wheelSummary_ = 0;
        wheelPos_ = T;
        for (auto &e : clocked_) {
            if (e.next <= T) {
                e.next = T + e.period;
                e.tick(e.obj);
            }
        }
        busyCount_ = 0;
        for (ClockedHandle h = 0; h < clocked_.size(); ++h) {
            Entry &e = clocked_[h];
            e.idleFlag = e.idle(e.obj);
            if (!e.idleFlag)
                ++busyCount_;
            e.queued = false;
            requeueEntry(h);
        }
    }

    /**
     * Batch-account every entry's elided edges strictly before
     * @p bound and advance it to its first edge at or after @p bound.
     */
    void
    finalizeAll(Tick bound)
    {
        for (auto &e : clocked_) {
            if (e.next < bound) {
                const Tick n = (bound - 1 - e.next) / e.period + 1;
                if (e.skip)
                    e.skip(e.obj, n);
                e.next += n * e.period;
            }
        }
    }

    /** Pay every idle() re-read owed by this tick's pokes. */
    void
    settleIdle()
    {
        for (std::size_t w = 0; w < idleOwed_.size(); ++w) {
            std::uint64_t m = idleOwed_[w];
            if (m == 0)
                continue;
            idleOwed_[w] = 0;
            while (m != 0) {
                const auto h = static_cast<ClockedHandle>(
                    (w << 6) + std::countr_zero(m));
                m &= m - 1;
                updateIdleFlag(h);
            }
        }
    }

    EventQueue events_;
    stats::StatRegistry stats_;
    std::vector<Entry> clocked_;
    Tick now_ = 0;
    bool stopRequested_ = false;
    bool checksOn_ = false;
    trace::TraceSink *trace_ = nullptr;
    std::uint32_t tracePid_ = 0;
    harden::Context *harden_ = nullptr;

    // Wake-queue kernel state -------------------------------------------
    /**
     * Near-wake timing wheel: slot (t & WheelMask) holds a bitset of
     * entries registered to wake at tick t, for t within WheelSize
     * ticks of now_. The dominant reschedule — a busy component's
     * "again next cycle", or a DRAM timing gate a few ticks out —
     * costs two bit operations here instead of a heap push/pop pair.
     * Bit (t & WheelMask) of wheelSummary_ mirrors whether the slot
     * holds anything, so finding the next wake is one rotate plus a
     * count-trailing-zeros. Wakes beyond the window go to heap_.
     */
    static constexpr Tick WheelSize = 64;
    static constexpr Tick WheelMask = WheelSize - 1;
    std::vector<std::uint64_t> wheel_[WheelSize];
    std::uint64_t wheelSummary_ = 0; ///< Slot-occupancy bitmask.
    Tick wheelPos_ = 0; ///< Last tick whose slot was promoted.
    std::vector<HeapNode> heap_; ///< Wake calendar (min-heap by tick).
    std::vector<std::uint64_t> dueBits_;  ///< Fires this tick.
    /** Poked this tick; idle() re-read before the fast-forward test. */
    std::vector<std::uint64_t> idleOwed_;
    std::uint32_t busyCount_ = 0; ///< Entries with idleFlag == false.
    std::int64_t firingIdx_ = -1; ///< Fire cursor; -1 outside a tick().
    /**
     * The wake calendar is live: set by run()'s first tick, cleared
     * when run() returns. Outside it pokes are no-ops, and the next
     * run() rebuilds the calendar from scratch.
     */
    bool pokeArmed_ = false;
};

/** Base class for named simulation components. */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &sim() const { return sim_; }
    Tick curTick() const { return sim_.now(); }

    /**
     * The simulation's tracer (nullptr when tracing is off). Every
     * trace point guards on this pointer before evaluating any event
     * arguments; under -DNOMAD_DISABLE_TRACING=ON it is a compile-
     * time nullptr so those guarded blocks fold away entirely.
     */
    trace::TraceSink *
    tracer() const
    {
#ifdef NOMAD_DISABLE_TRACING
        return nullptr;
#else
        return sim_.trace();
#endif
    }
    std::uint32_t tracePid() const { return sim_.tracePid(); }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    void
    schedule(Tick delay, EventQueue::Callback cb)
    {
        sim_.schedule(delay, std::move(cb));
    }

    /** Register a statistic under this object's dotted name space. */
    template <typename StatT, typename... Args>
    StatT
    makeStat(const std::string &local_name, Args &&...args)
    {
        return StatT(name_ + "." + local_name,
                     std::forward<Args>(args)...);
    }

    /** Add an already-constructed statistic member to the registry. */
    void regStat(stats::StatBase *s) { sim_.statistics().add(s); }

    Simulation &sim_;
    std::string name_;
};

} // namespace nomad

#endif // NOMAD_SIM_SIMULATION_HH
