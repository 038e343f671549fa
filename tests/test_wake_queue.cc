/**
 * @file
 * Unit tests for the wake-queue kernel: same-tick firing order,
 * reschedule-while-pending coalescing, cancellation, timing wheel wrap
 * across far strides, registration growth churn, work handed to an
 * earlier-registered component, and a randomized check that diffs the
 * stats JSON of twin runs against a dense reference that ticks every
 * component on every clock edge.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace nomad
{
namespace
{

/**
 * Dense reference drive: exposes only the wrapped component's tick()
 * and idle(), hiding nextWorkTick()/skipTicks(), so the kernel ticks
 * it on every clock edge. Under the addClocked() contract (every edge
 * before the next work is a no-op whose accounting equals
 * skipTicks(1)) a wake-scheduled twin must end in the same state.
 */
template <typename T>
class Dense
{
  public:
    explicit Dense(T *c) : c_(c) {}
    void tick() { c_->tick(); }
    bool idle() const { return c_->idle(); }

  private:
    T *c_;
};

/** How a test registers its components with the kernel. */
enum class Drive
{
    WakeQueue, ///< The component itself: nextWorkTick()/skipTicks().
    EveryEdge  ///< Through Dense: ticked on every clock edge.
};

/** Fires every cycle; records its id in a shared firing log. */
class OrderProbe
{
  public:
    OrderProbe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick() { log_->push_back(id_); }
    bool idle() const { return false; }
    Tick nextWorkTick() const { return 0; }

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(WakeQueue, SameTickOrderIsRegistrationOrder)
{
    // 70 probes span more than one 64-bit due-bit word, so the walk
    // has to keep registration order across word boundaries too.
    constexpr int kProbes = 70;
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<OrderProbe>> probes;
    for (int i = 0; i < kProbes; ++i) {
        probes.push_back(std::make_unique<OrderProbe>(&log, i));
        sim.addClocked(probes.back().get(), 1);
    }
    sim.run(3);
    ASSERT_EQ(log.size(), 3u * kProbes);
    for (int t = 0; t < 3; ++t)
        for (int i = 0; i < kProbes; ++i)
            ASSERT_EQ(log[t * kProbes + i], i)
                << "tick " << t << " position " << i;
}

/**
 * One-shot component whose next-work tick is mutated externally;
 * every mutation pokes first, per the addClocked() contract.
 */
class Retargetable
{
  public:
    explicit Retargetable(Simulation &sim) : sim_(sim) {}

    void
    attach()
    {
        handle_ = sim_.addClocked(this, 1);
    }

    void
    tick()
    {
        if (sim_.now() < work_)
            return; // Elided/poked edge before the target: no-op.
        fires.push_back(sim_.now());
        work_ = MaxTick;
    }

    bool idle() const { return work_ == MaxTick; }
    Tick nextWorkTick() const { return work_; }

    void
    retarget(Tick t)
    {
        sim_.pokeClocked(handle_);
        work_ = t;
    }

    std::vector<Tick> fires;

  private:
    Simulation &sim_;
    Simulation::ClockedHandle handle_ =
        Simulation::InvalidClockedHandle;
    Tick work_ = 100;
};

TEST(WakeQueue, RescheduleWhilePendingMovesEarlier)
{
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(60); });
    sim.run(300);
    EXPECT_EQ(c.fires, (std::vector<Tick>{60}));
}

TEST(WakeQueue, RescheduleWhilePendingMovesLater)
{
    // The wake token for tick 100 is already queued when the target
    // moves to 160: the stale token must coalesce away, not fire.
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(160); });
    sim.run(300);
    EXPECT_EQ(c.fires, (std::vector<Tick>{160}));
}

TEST(WakeQueue, CancelAndRearm)
{
    Simulation sim;
    Retargetable c(sim);
    c.attach();
    sim.schedule(50, [&]() { c.retarget(MaxTick); });
    sim.schedule(200, [&]() { c.retarget(250); });
    sim.run(400);
    EXPECT_EQ(c.fires, (std::vector<Tick>{250}));
}

/** Sleeps a cycling stride after each firing; records firing ticks. */
class Strider
{
  public:
    explicit Strider(Simulation &sim) : sim_(sim) {}

    void
    tick()
    {
        if (sim_.now() < next_)
            return; // Elided/poked edge before the stride target.
        fires.push_back(sim_.now());
        // Strides straddle the 64-slot timing wheel: short ones stay
        // in the wheel, 200 overflows to the heap calendar, and the
        // 63/64/65 cluster lands on wrap boundaries.
        static constexpr Tick strides[] = {1,   63, 64,  65, 127,
                                           128, 2,  200, 64, 5};
        next_ = sim_.now() + strides[fires.size() % 10];
    }

    // Never idle: there is always a future stride scheduled, and
    // idle() must be a pure function of component state (the idle
    // fast-forward jumps straight to the next event, past any pending
    // wake).
    bool idle() const { return false; }
    Tick nextWorkTick() const { return next_; }

    std::vector<Tick> fires;

  private:
    Simulation &sim_;
    Tick next_ = 0;
};

TEST(WakeQueue, WheelWrapAndFarStrides)
{
    auto runOnce = [](Drive drive) {
        Simulation sim;
        Strider s(sim);
        Dense<Strider> dense(&s);
        if (drive == Drive::WakeQueue)
            sim.addClocked(&s, 1);
        else
            sim.addClocked(&dense, 1);
        sim.run(5000);
        return s.fires;
    };
    const std::vector<Tick> event = runOnce(Drive::WakeQueue);
    const std::vector<Tick> dense = runOnce(Drive::EveryEdge);
    EXPECT_EQ(event, dense);

    // Cross-check the head of the sequence against the stride table.
    static constexpr Tick strides[] = {1,   63, 64,  65, 127,
                                       128, 2,  200, 64, 5};
    ASSERT_GE(event.size(), 25u);
    Tick expect = 0;
    for (std::size_t i = 0; i < 25; ++i) {
        ASSERT_EQ(event[i], expect) << "firing " << i;
        expect += strides[(i + 1) % 10];
    }
}

/**
 * Busy-burst/sleep pattern driven by a private deterministic RNG.
 * The RNG is consumed only inside real work edges, which both drives
 * deliver at identical ticks, so twin runs stay in lockstep.
 * Work and elided-edge counts are published as statistics so twin
 * runs can be diffed as stats JSON.
 */
class PatternClocked
{
  public:
    PatternClocked(Simulation &sim, std::uint64_t seed, Tick period,
                   int index)
        : sim_(sim), rng_(seed), period_(period),
          work_("comp." + std::to_string(index) + ".work", ""),
          skipped_("comp." + std::to_string(index) + ".skipped", "")
    {
        sim_.statistics().add(&work_);
        sim_.statistics().add(&skipped_);
    }

    void
    attach(Drive drive)
    {
        // Under the dense drive, wake()'s pokes reach the adapter's
        // entry, where they are spurious and harmless.
        handle_ = drive == Drive::WakeQueue
                      ? sim_.addClocked(this, period_)
                      : sim_.addClocked(&dense_, period_);
    }

    void
    tick()
    {
        const Tick t = sim_.now();
        if (busyLeft_ == 0) {
            if (t < sleepUntil_) {
                // Spurious edge: identical accounting to skipTicks(1),
                // per the nextWorkTick() contract.
                skipped_ += 1;
                return;
            }
            busyLeft_ = 1 + rng_.nextRange(6);
        }
        work_ += 1;
        fireHash = fireHash * 1099511628211ull + t;
        if (--busyLeft_ == 0)
            sleepUntil_ = t + period_ * (1 + rng_.nextRange(64));
    }

    bool
    idle() const
    {
        // There is always a future burst scheduled, so the component
        // is never idle in the kernel's sense (idle would let the
        // kernel fast-forward past sleepUntil_ to the next event).
        return false;
    }

    Tick
    nextWorkTick() const
    {
        return busyLeft_ > 0 ? Tick{0} : sleepUntil_;
    }

    void skipTicks(Tick n) { skipped_ += static_cast<double>(n); }

    /** External stimulus: extend the burst (poke-before-mutate). */
    void
    wake(int amount)
    {
        sim_.pokeClocked(handle_);
        busyLeft_ += amount;
    }

    double workCount() const { return work_.value(); }
    double skipCount() const { return skipped_.value(); }

    std::uint64_t fireHash = 1469598103934665603ull;

  private:
    Simulation &sim_;
    Rng rng_;
    Tick period_;
    Dense<PatternClocked> dense_{this};
    Simulation::ClockedHandle handle_ =
        Simulation::InvalidClockedHandle;
    int busyLeft_ = 0;
    Tick sleepUntil_ = 0;
    stats::Scalar work_;
    stats::Scalar skipped_;
};

struct TwinResult
{
    std::vector<double> work, skipped;
    std::vector<std::uint64_t> hashes;
    std::string statsJson;
};

TwinResult
runPatternFleet(Drive drive, std::uint64_t seed, int components,
                Tick horizon)
{
    Simulation sim;
    Rng topo(seed);
    std::vector<std::unique_ptr<PatternClocked>> comps;
    for (int i = 0; i < components; ++i) {
        const Tick period = 1 + topo.nextRange(3);
        comps.push_back(std::make_unique<PatternClocked>(
            sim, seed * 1000 + i, period, i));
        comps.back()->attach(drive);
    }
    // Random external wakes, including pokes to sleeping components.
    for (int i = 0; i < 50; ++i) {
        const Tick at = 1 + topo.nextRange(horizon - 2);
        const int c = static_cast<int>(
            topo.nextRange(static_cast<std::uint64_t>(components)));
        sim.schedule(at,
                     [&comps, c]() { comps[c]->wake(1 + (c % 5)); });
    }
    sim.run(horizon);

    TwinResult r;
    for (const auto &c : comps) {
        r.work.push_back(c->workCount());
        r.skipped.push_back(c->skipCount());
        r.hashes.push_back(c->fireHash);
    }
    std::ostringstream oss;
    sim.statistics().dumpJson(oss);
    r.statsJson = oss.str();
    return r;
}

TEST(WakeQueue, RandomizedDenseReferenceEquivalence)
{
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const TwinResult ev =
            runPatternFleet(Drive::WakeQueue, seed, 24, 6000);
        const TwinResult lg =
            runPatternFleet(Drive::EveryEdge, seed, 24, 6000);
        EXPECT_EQ(ev.work, lg.work) << "seed " << seed;
        EXPECT_EQ(ev.skipped, lg.skipped) << "seed " << seed;
        EXPECT_EQ(ev.hashes, lg.hashes) << "seed " << seed;
        EXPECT_EQ(ev.statsJson, lg.statsJson) << "seed " << seed;
        // Sanity: the fleet actually did something.
        double total = 0;
        for (const double w : ev.work)
            total += w;
        EXPECT_GT(total, 1000) << "seed " << seed;
    }
}

TEST(WakeQueue, GrowthChurnEquivalence)
{
    // 150 components need the due/idle-owed bitsets and every wheel
    // slot to grow to three words; the twin comparison catches any
    // bit lost during growth.
    const TwinResult ev = runPatternFleet(Drive::WakeQueue, 7, 150, 2500);
    const TwinResult lg = runPatternFleet(Drive::EveryEdge, 7, 150, 2500);
    EXPECT_EQ(ev.work, lg.work);
    EXPECT_EQ(ev.skipped, lg.skipped);
    EXPECT_EQ(ev.hashes, lg.hashes);
    EXPECT_EQ(ev.statsJson, lg.statsJson);
}

/** Sleeps until handed work; one unit per tick. */
class Receiver
{
  public:
    explicit Receiver(Simulation &sim) : sim_(sim) {}

    void
    attach()
    {
        handle_ = sim_.addClocked(this, 1);
    }

    void
    tick()
    {
        if (pending_ > 0) {
            --pending_;
            ++done;
        }
    }

    bool idle() const { return pending_ == 0; }
    Tick nextWorkTick() const { return pending_ > 0 ? 0 : MaxTick; }

    void
    give(int units)
    {
        sim_.pokeClocked(handle_);
        pending_ += units;
    }

    int done = 0;

  private:
    Simulation &sim_;
    Simulation::ClockedHandle handle_ =
        Simulation::InvalidClockedHandle;
    int pending_ = 0;
};

/** One busy edge at a fixed tick: hands 3 units over, then idles. */
class Handoff
{
  public:
    Handoff(Simulation &sim, Receiver &to, Tick at)
        : sim_(sim), to_(to), at_(at)
    {}

    void
    tick()
    {
        if (handed_ || sim_.now() < at_)
            return;
        to_.give(3);
        handed_ = true;
    }

    bool idle() const { return handed_; }
    Tick nextWorkTick() const { return handed_ ? MaxTick : at_; }

  private:
    Simulation &sim_;
    Receiver &to_;
    Tick at_;
    bool handed_ = false;
};

/**
 * Work handed backwards in registration order, with no event ever
 * scheduled: the receiver's idle flag was read before the handoff,
 * so unless the poke forces a re-read before the all-idle test the
 * kernel concludes nothing can ever happen again and stops.
 */
int
backwardHandoffDone(Tick at)
{
    Simulation sim;
    Receiver a(sim);
    a.attach();
    Handoff b(sim, a, at);
    sim.addClocked(&b, 1);
    sim.run(100);
    return a.done;
}

TEST(WakeQueue, BackwardHandoffInFirePhaseCompletes)
{
    EXPECT_EQ(backwardHandoffDone(5), 3);
}

TEST(WakeQueue, BackwardHandoffOnFirstTickCompletes)
{
    // Tick 0 is run()'s resume visit, where pokes are disarmed.
    EXPECT_EQ(backwardHandoffDone(0), 3);
}

} // namespace
} // namespace nomad
