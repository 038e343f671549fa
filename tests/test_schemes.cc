/**
 * @file
 * Scheme-level tests: TiD's tags-in-DRAM behaviour (metadata traffic,
 * set conflicts, MSHR merging, critical-block-first), the launch
 * policies of the 64B line caches (Alloy's miss predictor, TDRAM's
 * tag check) and their dirty-victim writeback, the NOMAD
 * scheme's decoupled data-hit verification and DC controller queue,
 * and translation (memAddrFor) semantics for every scheme kind.
 */

#include <gtest/gtest.h>

#include "dramcache/alloy_scheme.hh"
#include "dramcache/baseline_scheme.hh"
#include "dramcache/ideal_scheme.hh"
#include "dramcache/nomad_scheme.hh"
#include "dramcache/tdc_scheme.hh"
#include "dramcache/tdram_scheme.hh"
#include "dramcache/tid_scheme.hh"

namespace nomad
{
namespace
{

class SchemeTest : public ::testing::Test
{
  protected:
    SchemeTest()
        : pt(1 << 20), hbm(sim, "hbm", DramTiming::hbm2()),
          ddr(sim, "ddr", DramTiming::ddr4_3200())
    {
    }

    template <typename Pred>
    bool
    runUntil(Pred pred, Tick bound = 3'000'000)
    {
        const Tick start = sim.now();
        while (!pred() && sim.now() - start < bound)
            sim.run(256);
        return pred();
    }

    Simulation sim;
    PageTable pt;
    DramDevice hbm;
    DramDevice ddr;
};

TEST_F(SchemeTest, TidHitCostsMetadataBandwidth)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);

    // Miss fills the line, then a hit to the same line.
    Tick done = 0;
    auto miss = makeRequest(0x10000, false, Category::Demand,
                            MemSpace::OffPackage, 0,
                            [&](Tick t) { done = t; });
    ASSERT_TRUE(tid.tryAccess(miss, nullptr));
    EXPECT_EQ(tid.dcMisses.value(), 1.0);
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));

    const double tag_reads = tid.tagReads.value();
    Tick done2 = 0;
    auto hit = makeRequest(0x10000 + 64, false, Category::Demand,
                           MemSpace::OffPackage, sim.now(),
                           [&](Tick t) { done2 = t; });
    ASSERT_TRUE(tid.tryAccess(hit, nullptr));
    EXPECT_EQ(tid.dcHits.value(), 1.0);
    EXPECT_EQ(tid.tagReads.value(), tag_reads + 1)
        << "every DC access reads a tag burst from on-package DRAM";
    EXPECT_GT(tid.tagWrites.value(), 0.0);
    ASSERT_TRUE(runUntil([&]() { return done2 != 0; }));
    // The demand hit read on-package DRAM.
    EXPECT_GT(hbm.stats()
                  .categoryBytes[static_cast<int>(Category::Demand)]
                  .value(),
              0.0);
}

TEST_F(SchemeTest, TidLineFillMovesWholeLineCriticalBlockFirst)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    p.lineBytes = 1024;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    Tick done = 0;
    bool fill_still_active = false;
    // Demand the 10th block of the line: critical-block-first should
    // answer while the rest of the line is still transferring.
    auto miss = makeRequest(0x20000 + 10 * 64, false, Category::Demand,
                            MemSpace::OffPackage, 0, [&](Tick t) {
                                done = t;
                                fill_still_active = !tid.idle();
                            });
    ASSERT_TRUE(tid.tryAccess(miss, nullptr));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_TRUE(fill_still_active)
        << "the demand block waited for the full line";
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    EXPECT_EQ(ddr.stats().readReqs.value(), 16.0);
    EXPECT_EQ(
        hbm.stats().categoryBytes[static_cast<int>(Category::Fill)]
            .value(),
        1024.0);
}

TEST_F(SchemeTest, TidConflictEvictionWritesBackDirtyLine)
{
    TidParams p;
    p.capacityBytes = 64 * 1024; // 16 sets at 4 ways of 1KB.
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    const Addr set_stride = 16 * 1024; // 16 sets x 1KB.
    // Fill all four ways of set 0 with dirty lines.
    for (int w = 0; w < 4; ++w) {
        auto wr = makeRequest(w * set_stride, true, Category::Demand,
                              MemSpace::OffPackage, 0, nullptr);
        ASSERT_TRUE(tid.tryAccess(wr, nullptr));
        ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    }
    // A fifth line conflicts.
    auto rd = makeRequest(4 * set_stride, false, Category::Demand,
                          MemSpace::OffPackage, sim.now(), [](Tick) {});
    ASSERT_TRUE(tid.tryAccess(rd, nullptr));
    ASSERT_TRUE(runUntil([&]() { return tid.idle(); }));
    EXPECT_EQ(tid.conflictEvictions.value(), 1.0);
    EXPECT_EQ(tid.dirtyWritebacks.value(), 1.0);
    EXPECT_EQ(ddr.stats()
                  .categoryBytes[static_cast<int>(Category::Writeback)]
                  .value(),
              1024.0);
}

TEST_F(SchemeTest, TidMergesAccessesToInFlightLines)
{
    TidParams p;
    p.capacityBytes = 1 << 20;
    TidScheme tid(sim, "tid", p, ddr, hbm, pt);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        auto rd = makeRequest(0x30000 + i * 64, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick) { ++done; });
        ASSERT_TRUE(tid.tryAccess(rd, nullptr));
    }
    EXPECT_EQ(tid.dcMisses.value(), 1.0);
    EXPECT_EQ(tid.dcMissesMerged.value(), 3.0);
    ASSERT_TRUE(runUntil([&]() { return done == 4; }));
}

/** Sum of the completed-read latencies of @p dev so far. */
double
readLatencySum(const DramDevice &dev)
{
    return dev.stats().readLatency.sum();
}

/**
 * The tick the off-package fetch of a demand that completed at
 * @p done entered the DDR queue: the line caches complete a target
 * one tick after the fetch's data, and the DDR read-latency sample
 * is data tick minus enqueue tick. Valid when the fetch is the only
 * DDR read since @p ddr_sum was taken.
 */
Tick
fetchSentAt(const DramDevice &ddr, double ddr_sum, Tick done)
{
    return done - 1 -
           static_cast<Tick>(readLatencySum(ddr) - ddr_sum);
}

TEST_F(SchemeTest, AlloyMispredictedHitFetchesAfterTheProbe)
{
    AlloyParams p;
    p.capacityBytes = 1 << 20;
    p.predictorBits = 1;     // One hit flips the prediction to "hit".
    p.tagBytesPerAccess = 0; // No TAD tag bursts on the HBM.
    AlloyScheme alloy(sim, "alloy", p, ddr, hbm, pt);

    // Train the predictor: a miss, then a hit to the same line.
    for (int i = 0; i < 2; ++i) {
        Tick done = 0;
        auto rd = makeRequest(0x10000, false, Category::Demand,
                              MemSpace::OffPackage, sim.now(),
                              [&](Tick t) { done = t; });
        ASSERT_TRUE(alloy.tryAccess(rd, nullptr));
        ASSERT_TRUE(runUntil([&]() {
            return done != 0 && alloy.idle() && ddr.idle() &&
                   hbm.idle();
        }));
    }
    ASSERT_EQ(alloy.dcHits.value(), 1.0);
    const double predicted_misses = alloy.missPredictions.value();

    // A predicted hit that misses: the on-package TAD probe runs
    // first, and the fetch leaves only when its data returns.
    const double hbm_sum = readLatencySum(hbm);
    const double ddr_sum = readLatencySum(ddr);
    const Tick issued = sim.now();
    Tick done = 0;
    auto rd = makeRequest(0x20000, false, Category::Demand,
                          MemSpace::OffPackage, issued,
                          [&](Tick t) { done = t; });
    ASSERT_TRUE(alloy.tryAccess(rd, nullptr));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(alloy.dcMisses.value(), 2.0);
    EXPECT_EQ(alloy.missPredictions.value(), predicted_misses)
        << "the miss was predicted to hit";
    const Tick probe_done =
        issued + static_cast<Tick>(readLatencySum(hbm) - hbm_sum);
    EXPECT_GT(probe_done, issued);
    EXPECT_GE(fetchSentAt(ddr, ddr_sum, done), probe_done);
    ASSERT_TRUE(runUntil([&]() { return alloy.idle(); }));
}

TEST_F(SchemeTest, AlloyPredictedMissThatHitsCountsSpuriousFetch)
{
    AlloyParams p;
    p.capacityBytes = 1 << 20;
    p.tagBytesPerAccess = 0;
    AlloyScheme alloy(sim, "alloy", p, ddr, hbm, pt);

    // The counter starts at "miss": the fetch leaves with the access.
    const Tick issued = sim.now();
    Tick done = 0;
    auto miss = makeRequest(0x10000, false, Category::Demand,
                            MemSpace::OffPackage, issued,
                            [&](Tick t) { done = t; });
    ASSERT_TRUE(alloy.tryAccess(miss, nullptr));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(fetchSentAt(ddr, 0, done), issued);
    EXPECT_EQ(alloy.missPredictions.value(), 1.0);
    EXPECT_EQ(alloy.spuriousFetches.value(), 0.0);
    ASSERT_TRUE(runUntil([&]() { return alloy.idle(); }));

    // Still predicted to miss, the hit wastes an off-package read.
    Tick done2 = 0;
    auto hit = makeRequest(0x10000, false, Category::Demand,
                           MemSpace::OffPackage, sim.now(),
                           [&](Tick t) { done2 = t; });
    ASSERT_TRUE(alloy.tryAccess(hit, nullptr));
    EXPECT_EQ(alloy.dcHits.value(), 1.0);
    EXPECT_EQ(alloy.missPredictions.value(), 2.0);
    EXPECT_EQ(alloy.spuriousFetches.value(), 1.0);
    ASSERT_TRUE(runUntil([&]() {
        return done2 != 0 && alloy.idle() && ddr.idle();
    }));
    EXPECT_EQ(ddr.stats().readReqs.value(), 2.0)
        << "the fill and the wasted parallel read";
    EXPECT_EQ(ddr.stats()
                  .categoryBytes[static_cast<int>(Category::Demand)]
                  .value(),
              64.0);
}

TEST_F(SchemeTest, TdramFetchLeavesAfterTheTagCheck)
{
    TdramParams p;
    p.capacityBytes = 1 << 20;
    p.tagCheckTicks = 7;
    TdramScheme tdram(sim, "tdram", p, ddr, hbm, pt);
    sim.run(100);

    const Tick issued = sim.now();
    Tick done = 0;
    auto miss = makeRequest(0x10000, false, Category::Demand,
                            MemSpace::OffPackage, issued,
                            [&](Tick t) { done = t; });
    ASSERT_TRUE(tdram.tryAccess(miss, nullptr));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(tdram.earlyMisses.value(), 1.0);
    EXPECT_EQ(fetchSentAt(ddr, 0, done), issued + p.tagCheckTicks);
    ASSERT_TRUE(runUntil([&]() { return tdram.idle(); }));
}

TEST_F(SchemeTest, LineCacheDirtyVictimReadsOnPackageThenWritesOff)
{
    TdramParams p;
    p.capacityBytes = 64 * BlockBytes; // Direct-mapped: 64 sets.
    p.assoc = 1;
    TdramScheme tdram(sim, "tdram", p, ddr, hbm, pt);
    const int wb = static_cast<int>(Category::Writeback);

    auto wr = makeRequest(0, true, Category::Demand,
                          MemSpace::OffPackage, 0, nullptr);
    ASSERT_TRUE(tdram.tryAccess(wr, nullptr));
    ASSERT_TRUE(runUntil([&]() {
        return tdram.idle() && ddr.idle() && hbm.idle();
    }));

    // A read of the next line mapping to set 0 evicts the dirty one.
    const std::uint64_t hbm_reads = hbm.stats().readLatency.count();
    const double hbm_sum = readLatencySum(hbm);
    auto rd = makeRequest(64 * BlockBytes, false, Category::Demand,
                          MemSpace::OffPackage, sim.now(), [](Tick) {});
    ASSERT_TRUE(tdram.tryAccess(rd, nullptr));
    EXPECT_EQ(tdram.conflictEvictions.value(), 1.0);
    EXPECT_EQ(tdram.dirtyWritebacks.value(), 1.0);

    // Step tick by tick: the victim's on-package read must enter the
    // HBM queue, and its data return, before the off-package write
    // is accepted.
    auto hbmReadQueued = [&]() {
        if (hbm.stats().readLatency.count() != hbm_reads)
            return true;
        for (std::uint32_t c = 0; c < hbm.numChannels(); ++c)
            if (hbm.channel(c).readQueueSize() > 0)
                return true;
        return false;
    };
    Tick read_sent = MaxTick;
    Tick write_accepted = MaxTick;
    while (write_accepted == MaxTick && sim.now() < 100'000) {
        sim.run(1);
        if (read_sent == MaxTick && hbmReadQueued())
            read_sent = sim.now() - 1;
        if (ddr.stats().categoryBytes[wb].value() > 0)
            write_accepted = sim.now() - 1;
    }
    ASSERT_NE(read_sent, MaxTick);
    ASSERT_NE(write_accepted, MaxTick);
    ASSERT_EQ(hbm.stats().readLatency.count(), hbm_reads + 1);
    const Tick read_done =
        read_sent + static_cast<Tick>(readLatencySum(hbm) - hbm_sum);
    EXPECT_GE(write_accepted, read_done);

    ASSERT_TRUE(runUntil([&]() {
        return tdram.idle() && ddr.idle() && hbm.idle();
    }));
    EXPECT_EQ(hbm.stats().categoryBytes[wb].value(), 64.0);
    EXPECT_EQ(ddr.stats().categoryBytes[wb].value(), 64.0);
}

TEST_F(SchemeTest, NomadDataHitForwardsToHbm)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    Tick done = 0;
    auto rd = makeRequest(5ULL << PageShift, false, Category::Demand,
                          MemSpace::OnPackage, 0,
                          [&](Tick t) { done = t; });
    ASSERT_TRUE(nomad.tryAccess(rd, nullptr));
    ASSERT_TRUE(runUntil([&]() { return done != 0; }));
    EXPECT_EQ(nomad.backEnd(0).dataHits.value(), 1.0);
    EXPECT_EQ(hbm.stats().readReqs.value(), 1.0);
}

TEST_F(SchemeTest, NomadControllerQueueAbsorbsSubEntryOverflow)
{
    NomadParams p;
    p.backEnd.numPcshrs = 1;
    p.backEnd.subEntriesPerPcshr = 1;
    p.backEnd.maxReadsInFlight = 1;
    p.controllerQueueDepth = 8;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    // Start a fill, then hammer the page with reads to un-fetched
    // blocks: one parks in the sub-entry, the rest in the controller
    // queue; none bounce back while the queue has room.
    nomad.backEnd(0).sendCacheFill(9, 1234, 0, nullptr, nullptr);
    int done = 0;
    for (int i = 0; i < 6; ++i) {
        auto rd = makeRequest((9ULL << PageShift) + (40 + i) * 64,
                              false, Category::Demand,
                              MemSpace::OnPackage, 0,
                              [&](Tick) { ++done; });
        ASSERT_TRUE(nomad.tryAccess(rd, nullptr)) << "i=" << i;
    }
    ASSERT_TRUE(runUntil([&]() { return done == 6; }));
}

TEST_F(SchemeTest, MemAddrForTranslatesSpaces)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    BaselineScheme base(sim, "base", ddr, pt);

    Pte pte;
    pte.present = true;
    pte.frame = 7;
    MemSpace space;

    Addr a = base.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OffPackage);
    EXPECT_EQ(a, (7ULL << PageShift) | 0x456u);

    a = nomad.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OffPackage) << "uncached page -> PFN";

    pte.cached = true;
    pte.frame = 3;
    a = nomad.memAddrFor(pte, 0x123456, space);
    EXPECT_EQ(space, MemSpace::OnPackage) << "cached page -> CFN";
    EXPECT_EQ(a, (3ULL << PageShift) | 0x456u);
}

TEST_F(SchemeTest, IdealCountsWouldBeTraffic)
{
    IdealScheme ideal(sim, "ideal", ddr, hbm, pt, 64);
    Pte *pte = pt.touch(1);
    Tick resumed = 0;
    ideal.finishWalk(0, 1ULL << PageShift, pte,
                     [&](Tick t) { resumed = t + 1; });
    sim.run(3);
    EXPECT_GT(resumed, 0u) << "ideal resumes with zero latency cost";
    EXPECT_LE(resumed, 3u);
    EXPECT_EQ(ideal.fillsCounted(), 1u);
    EXPECT_TRUE(pte->cached);
    EXPECT_EQ(ddr.stats().readReqs.value(), 0.0)
        << "ideal fills cost no actual traffic";
}

TEST_F(SchemeTest, TdcFinishWalkBlocksUntilCopyCompletes)
{
    TdcParams p;
    p.copyEngines = 2;
    TdcScheme tdc(sim, "tdc", p, ddr, hbm, pt);
    Pte *pte = pt.touch(1);
    Tick resumed = 0;
    tdc.finishWalk(0, 1ULL << PageShift, pte,
                   [&](Tick t) { resumed = t; });
    sim.run(500);
    EXPECT_EQ(resumed, 0u) << "TDC blocks during the page copy";
    ASSERT_TRUE(runUntil([&]() { return resumed != 0; }));
    // The copy moved a whole page.
    EXPECT_EQ(ddr.stats().readReqs.value(), 64.0);
    EXPECT_TRUE(pte->cached);
}

TEST_F(SchemeTest, NonTagMissWalkResumesImmediately)
{
    NomadParams p;
    NomadScheme nomad(sim, "nomad", p, ddr, hbm, pt);
    Pte *pte = pt.touch(2);
    pte->nonCacheable = true; // NC pages never enter the DC.
    Tick resumed = 0;
    nomad.finishWalk(0, 2ULL << PageShift, pte,
                     [&](Tick t) { resumed = t + 1; });
    EXPECT_GT(resumed, 0u);
    EXPECT_FALSE(pte->cached);
    EXPECT_EQ(nomad.frontEnd().tagMisses.value(), 0.0);
}

} // namespace
} // namespace nomad
