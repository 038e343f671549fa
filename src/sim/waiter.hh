/**
 * @file
 * Retry-on-release back-pressure: a refused sender parks until the
 * component that refused it frees a slot.
 *
 * A MemPort that cannot accept a request returns false and parks the
 * sender's PortWaiter on the WaiterList of the component that actually
 * refused it (forwarding ports — schemes, the far-tier link, DRAM
 * devices — pass the waiter through to the refusing channel or
 * queue). The sender then stops retrying that work: it reports
 * nextWorkTick() == MaxTick for it until woken. The target wakes its
 * whole list on every mutation that could turn a refusal into an
 * acceptance. A wake only pokes the sender's clocked entry and clears
 * its blocked flag; it never retries synchronously, so the kernel
 * fires woken senders at the earliest edge the historical per-tick
 * poll would have ticked them, in registration order, and the first
 * one wins the freed slot exactly as under polling
 * (docs/PERFORMANCE.md, "Retry-on-release back-pressure").
 *
 * A spurious wake costs one refused retry. A missed wake is a bug: the
 * sender would sleep through an acceptance the poll would have made.
 */

#ifndef NOMAD_SIM_WAITER_HH
#define NOMAD_SIM_WAITER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simulation.hh"

namespace nomad
{

/**
 * A sender's parking token. One sender may be parked on several lists
 * at once (a copy pump refused by two DRAM channels in one pass); the
 * first wake clears the token and bumps its epoch, which turns its
 * entries on every other list stale.
 */
class PortWaiter
{
  public:
    PortWaiter() = default;

    PortWaiter(const PortWaiter &) = delete;
    PortWaiter &operator=(const PortWaiter &) = delete;

    /** Wake by poking clocked entry @p h of @p sim. */
    void
    bind(Simulation &sim, Simulation::ClockedHandle h)
    {
        sim_ = &sim;
        handle_ = h;
    }

    /** Parked on some list and not woken since. */
    bool blocked() const { return blocked_; }

    /**
     * Changes on every wake and reset. A sender that sleeps on a whole
     * pass of refusals compares it with the value it saw when the pass
     * began: any difference means some target woke it.
     */
    std::uint32_t epoch() const { return epoch_; }

    /**
     * Drop every parking without a wake: the sender is about to retry
     * all of its parked work itself.
     */
    void
    reset()
    {
        blocked_ = false;
        ++epoch_;
    }

  private:
    friend class WaiterList;

    Simulation *sim_ = nullptr;
    Simulation::ClockedHandle handle_ = Simulation::InvalidClockedHandle;
    std::uint32_t epoch_ = 0;
    bool blocked_ = false;
};

/**
 * The senders parked on one target. Each sender occupies at most one
 * entry (a re-park refreshes it in place), so the storage reserved at
 * construction covers every park once each sender has been seen:
 * parking never allocates in steady state.
 */
class WaiterList
{
  public:
    WaiterList() { slots_.reserve(ReservedSlots); }

    WaiterList(const WaiterList &) = delete;
    WaiterList &operator=(const WaiterList &) = delete;

    /** Park @p w until the next wakeAll(). Null (a caller that drops
     *  refused requests instead of retrying them) is ignored. */
    void
    park(PortWaiter *w)
    {
        if (!w)
            return;
        w->blocked_ = true;
        for (Slot &s : slots_) {
            if (s.w == w) {
                s.epoch = w->epoch_;
                return;
            }
        }
        slots_.push_back({w, w->epoch_});
    }

    /** Wake every parked sender (called by the target on release). */
    void
    wakeAll()
    {
        if (!slots_.empty())
            wakeSlow();
    }

    /** Senders still parked here (stale entries excluded). */
    std::size_t
    parked() const
    {
        std::size_t n = 0;
        for (const Slot &s : slots_)
            n += s.epoch == s.w->epoch_ ? 1 : 0;
        return n;
    }

  private:
    /** Covers every target in the shipped suites (at most eight L2s
     *  share the L3); a target with more senders grows once per new
     *  sender, never per park. */
    static constexpr std::size_t ReservedSlots = 8;

    struct Slot
    {
        PortWaiter *w;
        std::uint32_t epoch; ///< Live while equal to w->epoch_.
    };

    void
    wakeSlow()
    {
        for (const Slot &s : slots_) {
            PortWaiter *w = s.w;
            if (s.epoch != w->epoch_)
                continue; // Woken elsewhere or reset since parking.
            // Poke before the mutation (the kernel's poke contract):
            // the sender's elided edges are accounted while it still
            // reads as blocked.
            w->sim_->pokeClocked(w->handle_);
            w->blocked_ = false;
            ++w->epoch_;
        }
        slots_.clear();
    }

    std::vector<Slot> slots_;
};

/**
 * Sleep gate of a pump-style sender: a component whose tick() makes a
 * pass over all of its queued work (copy pumps, DC controller queues).
 * A pass that changed nothing leaves every later pass a no-op until an
 * external entry point mutates the component (touch()) or a target it
 * parked on wakes it, so the component sleeps in between; refusals in
 * such a pass are parked, never polled.
 */
class PumpGate
{
  public:
    void
    bind(Simulation &sim, Simulation::ClockedHandle h)
    {
        waiter_.bind(sim, h);
    }

    /** The token to hand to tryAccess() from inside the component. */
    PortWaiter *waiter() { return &waiter_; }

    /** A full pass starts: it retries all parked work itself. */
    void
    beginPass()
    {
        waiter_.reset();
        passEpoch_ = waiter_.epoch();
        progress_ = false;
    }

    /** The pass changed component state. */
    void progress() { progress_ = true; }

    /** The pass ends: sleep when it changed nothing. */
    void endPass() { asleep_ = !progress_; }

    /** An external entry point mutated state: the next pass is owed. */
    void touch() { asleep_ = false; }

    /** The next pass is a provable no-op. */
    bool
    asleep() const
    {
        return asleep_ && waiter_.epoch() == passEpoch_;
    }

  private:
    PortWaiter waiter_;
    std::uint32_t passEpoch_ = 0;
    bool progress_ = false;
    bool asleep_ = false;
};

} // namespace nomad

#endif // NOMAD_SIM_WAITER_HH
