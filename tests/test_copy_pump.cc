/**
 * @file
 * Tests for the page-copy pump shared by the NOMAD back-end's PCSHRs
 * and the tiering migration slots (CopyPump in
 * src/dramcache/copy_transaction.hh), run once per engine: a full
 * destination queue refuses a copy write, the pump then sleeps
 * instead of polling, the destination channel's CAS wakes it, and
 * elided sleeping passes keep the round-robin cursor where ticked
 * no-op passes would.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "dram/device.hh"
#include "dramcache/nomad_backend.hh"
#include "harden/check.hh"
#include "tiering/migration_engine.hh"
#include "tiering/tiering.hh"

namespace nomad
{
namespace
{

/** NOMAD back-end: a cache fill copies far page pfn into frame cfn. */
struct NomadPump
{
    using Engine = NomadBackEnd;

    static std::unique_ptr<Engine>
    make(Simulation &sim, DramDevice &near, DramDevice &far, FarTierLink &)
    {
        return std::make_unique<Engine>(sim, "be", NomadBackEndParams{},
                                        near, far);
    }

    static void
    start(Engine &e, PageNum pfn, PageNum cfn,
          std::function<void(Tick)> done)
    {
        e.sendCacheFill(cfn, pfn, 0, nullptr, std::move(done));
    }
};

/** Migration engine: a promotion copies far page pfn into frame cfn. */
struct MigrationPump
{
    using Engine = MigrationEngine;

    static std::unique_ptr<Engine>
    make(Simulation &sim, DramDevice &near, DramDevice &, FarTierLink &link)
    {
        return std::make_unique<Engine>(sim, "engine",
                                        MigrationEngineParams{}, near, link);
    }

    static void
    start(Engine &e, PageNum pfn, PageNum cfn,
          std::function<void(Tick)> done)
    {
        ASSERT_TRUE(e.startPromotion(pfn, cfn, std::move(done), nullptr));
    }
};

/**
 * A one-channel near tier with a two-entry write queue and a very slow
 * ACT-to-CAS delay: writes queued there stay queued long after every
 * source read of a copy has landed. Refresh is pushed out of the way.
 */
DramTiming
slowNearTiming()
{
    DramTiming t = DramTiming::hbm2();
    t.channels = 1;
    t.writeQueueDepth = 2;
    t.writeHighWatermark = 2;
    t.writeLowWatermark = 0;
    t.tRCD = 10000;
    t.tREFI = 10'000'000;
    return t;
}

Addr
blockAddr(PageNum page, std::uint32_t idx)
{
    return (static_cast<Addr>(page) << PageShift) +
           static_cast<Addr>(idx) * BlockBytes;
}

template <typename T>
class CopyPumpTest : public ::testing::Test
{
  protected:
    CopyPumpTest()
        : near(sim, "near", slowNearTiming()),
          far(sim, "far", DramTiming::ddr4_3200()),
          link(sim, "farlink", far, /*link_ticks=*/200)
    {
        ctx.checkInvariants = true;
        sim.setHarden(&ctx);
        engine = T::make(sim, near, far, link);
    }

    /** CAS commands the near channel has issued. */
    double
    nearCas() const
    {
        const DramStats &s = near.stats();
        return s.rowHits.value() + s.rowMisses.value() +
               s.rowConflicts.value();
    }

    harden::Context ctx; ///< Outlives sim (declared first).
    Simulation sim;
    DramDevice near;
    DramDevice far;
    FarTierLink link;
    std::unique_ptr<typename T::Engine> engine;
};

using Engines = ::testing::Types<NomadPump, MigrationPump>;
TYPED_TEST_SUITE(CopyPumpTest, Engines);

TYPED_TEST(CopyPumpTest, SleepsOnRefusedWriteUntilCasWakesIt)
{
    auto &e = *this->engine;
    auto &near = this->near;
    auto &sim = this->sim;

    // Two writes of another page fill the near channel's write queue.
    constexpr PageNum filler = 900;
    for (std::uint32_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(near.tryAccess(
            makeRequest(blockAddr(filler, i), true, Category::Demand,
                        MemSpace::OnPackage, sim.now()),
            nullptr));
    }
    ASSERT_EQ(near.queuedWrites(), 2u);

    Tick done = 0;
    TypeParam::start(e, /*pfn=*/17, /*cfn=*/3,
                     [&](Tick t) { done = t + 1; });

    // Every source read lands well before the near channel's first CAS:
    // each buffered sub-block is offered to the full queue and refused.
    sim.run(15000);
    ASSERT_EQ(this->nearCas(), 0.0) << "the slow channel already issued";
    EXPECT_EQ(this->far.stats().readReqs.value(), 64.0);
    EXPECT_EQ(near.stats().writeReqs.value(), 2.0)
        << "only the filler writes were accepted";
    EXPECT_EQ(near.parkedSenders(), 1u) << "the refused pump is parked";
    EXPECT_EQ(done, 0u);

    // The refused pass changed nothing, so the pump sleeps.
    EXPECT_EQ(e.nextWorkTick(), MaxTick);

    // Sleeping passes only rotate the fairness cursor; eliding n of
    // them through skipTicks(n) lands it where n ticked passes do.
    const std::uint32_t c0 = e.rrCursor();
    for (int i = 0; i < 3; ++i)
        e.tick();
    const std::uint32_t c1 = e.rrCursor();
    EXPECT_EQ(c1, (c0 + 3) % 8);
    e.skipTicks(3);
    EXPECT_EQ(e.rrCursor(), (c1 + 3) % 8);
    e.skipTicks(8 + 5);
    EXPECT_EQ(e.rrCursor(), (c1 + 3 + 5) % 8);
    EXPECT_EQ(e.nextWorkTick(), MaxTick);
    EXPECT_EQ(near.stats().writeReqs.value(), 2.0);

    // Nothing but the channel's CAS, which frees a queue slot, wakes
    // the pump; it then writes into the freed slot.
    while (near.stats().writeReqs.value() == 2.0) {
        if (this->nearCas() == 0.0) {
            ASSERT_EQ(e.nextWorkTick(), MaxTick)
                << "pump awake at tick " << sim.now()
                << " before any CAS freed the queue";
        }
        ASSERT_LT(sim.now(), Tick(2'000'000));
        sim.run(1);
    }
    EXPECT_GE(this->nearCas(), 1.0);

    // The copy completes through the same wake-on-CAS cycle.
    while (done == 0 && sim.now() < Tick(4'000'000))
        sim.run(256);
    ASSERT_NE(done, 0u) << "copy did not complete";
    EXPECT_EQ(near.stats().writeReqs.value(), 2.0 + 64.0);
    while (!e.idle() && sim.now() < Tick(8'000'000))
        sim.run(256);
    EXPECT_TRUE(e.idle());
    EXPECT_NO_THROW(e.checkDrained());
}

} // namespace
} // namespace nomad
