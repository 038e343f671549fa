/**
 * @file
 * Unit and property tests for the DRAM timing model: address mapping,
 * single-access latency, row-buffer behaviour, write handling, refresh,
 * backpressure, and a randomized completeness/latency-bound property.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dram/device.hh"
#include "sim/rng.hh"
#include "sim/waiter.hh"

namespace nomad
{
namespace
{

/** Issue a read and run until it completes; returns the latency. */
Tick
timedRead(Simulation &sim, DramDevice &dev, Addr addr)
{
    Tick done = 0;
    const Tick start = sim.now();
    auto req = makeRequest(addr, false, Category::Demand,
                           MemSpace::OffPackage, start,
                           [&](Tick when) { done = when; });
    EXPECT_TRUE(dev.tryAccess(req, nullptr));
    while (done == 0)
        sim.run(100);
    return done - start;
}

TEST(AddressMapping, FieldsWithinBounds)
{
    const DramTiming t = DramTiming::ddr4_3200();
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextRange(t.capacityBytes);
        const DramCoord c =
            decodeAddress(addr, t, MappingScheme::ChBgBaCoRaRo);
        ASSERT_LT(c.channel, t.channels);
        ASSERT_LT(c.rank, t.ranksPerChannel);
        ASSERT_LT(c.bankGroup, t.bankGroups);
        ASSERT_LT(c.bank, t.banksPerGroup);
        ASSERT_LT(c.column, t.blocksPerRow());
        ASSERT_LT(c.row, t.rowsPerBank());
    }
}

TEST(AddressMapping, DistinctBlocksDecodeDistinctly)
{
    const DramTiming t = DramTiming::hbm2();
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>,
             Addr>
        seen;
    for (Addr a = 0; a < 1024 * BlockBytes; a += BlockBytes) {
        const DramCoord c =
            decodeAddress(a, t, MappingScheme::ChBgBaCoRaRo);
        auto key = std::make_tuple(c.channel, c.rank, c.bankGroup,
                                   c.bank, c.row, c.column);
        ASSERT_EQ(seen.count(key), 0u)
            << "aliased with addr " << seen[key];
        seen[key] = a;
    }
}

TEST(AddressMapping, ConsecutiveBlocksInterleaveChannels)
{
    const DramTiming t = DramTiming::hbm2(2);
    const auto c0 =
        decodeAddress(0, t, MappingScheme::ChBgBaCoRaRo).channel;
    const auto c1 =
        decodeAddress(BlockBytes, t, MappingScheme::ChBgBaCoRaRo)
            .channel;
    EXPECT_NE(c0, c1);
}

TEST(AddressMapping, Co1MappingAlternatesBankGroupsKeepsRowLocality)
{
    const DramTiming t = DramTiming::ddr4_3200();
    // Consecutive 128B chunks alternate bank groups (hides tCCD_L)...
    const auto a =
        decodeAddress(0, t, MappingScheme::Co1ChBgBaCoRaRo);
    const auto b =
        decodeAddress(128, t, MappingScheme::Co1ChBgBaCoRaRo);
    EXPECT_NE(a.bankGroup, b.bankGroup);
    // ...while a whole 4KB page still lands in one row per bank.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        bank_row;
    for (Addr addr = 0; addr < PageBytes; addr += BlockBytes) {
        const auto c =
            decodeAddress(addr, t, MappingScheme::Co1ChBgBaCoRaRo);
        auto key = std::make_pair(c.flatBank(t), c.rank);
        auto [it, inserted] = bank_row.try_emplace(key, c.row);
        EXPECT_EQ(it->second, c.row)
            << "page blocks must share one row per bank";
    }
}

TEST(AddressMapping, Co1MappingIsABijectionOverBlocks)
{
    const DramTiming t = DramTiming::hbm2();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr a = 0; a < 4096 * BlockBytes; a += BlockBytes) {
        const auto c =
            decodeAddress(a, t, MappingScheme::Co1ChBgBaCoRaRo);
        EXPECT_TRUE(seen.emplace(c.channel, c.rank, c.bankGroup,
                                 c.bank, c.row, c.column)
                        .second)
            << "alias at " << a;
    }
}

/** Property: every mapping scheme is a bounded bijection over blocks,
 *  for both device presets. */
class MappingProperty
    : public ::testing::TestWithParam<std::tuple<MappingScheme, bool>>
{
};

TEST_P(MappingProperty, BoundedBijection)
{
    const auto [scheme, use_hbm] = GetParam();
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr a = 0; a < 2048 * BlockBytes; a += BlockBytes) {
        const DramCoord c = decodeAddress(a, t, scheme);
        ASSERT_LT(c.channel, t.channels);
        ASSERT_LT(c.rank, t.ranksPerChannel);
        ASSERT_LT(c.bankGroup, t.bankGroups);
        ASSERT_LT(c.bank, t.banksPerGroup);
        ASSERT_LT(c.column, t.blocksPerRow());
        ASSERT_LT(c.row, t.rowsPerBank());
        ASSERT_TRUE(seen.emplace(c.channel, c.rank, c.bankGroup,
                                 c.bank, c.row, c.column)
                        .second)
            << "alias at " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MappingProperty,
    ::testing::Combine(
        ::testing::Values(MappingScheme::ChBgBaCoRaRo,
                          MappingScheme::ChCoBgBaRaRo,
                          MappingScheme::CoChBgBaRaRo,
                          MappingScheme::Co1ChBgBaCoRaRo),
        ::testing::Bool()));

TEST(DramDevice, EnergyAccumulatesPerOperation)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    Tick done = 0;
    dev.tryAccess(makeRequest(0, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }), nullptr);
    while (done == 0)
        sim.run(100);
    // One ACT + one RD at minimum.
    EXPECT_GE(dev.stats().energyPj.value(), t.eActPre + t.eRead);
    const double after_read = dev.stats().energyPj.value();
    dev.tryAccess(makeRequest(64, true, Category::Demand,
                              MemSpace::OffPackage, 0), nullptr);
    sim.run(200);
    EXPECT_GE(dev.stats().energyPj.value(), after_read + t.eWrite);
}

TEST(Timing, PresetsAreSane)
{
    const DramTiming ddr = DramTiming::ddr4_3200();
    const DramTiming hbm = DramTiming::hbm2();
    EXPECT_GT(ddr.rowsPerBank(), 0u);
    EXPECT_GT(hbm.rowsPerBank(), 0u);
    // 25.6 GB/s and 204.8 GB/s at a 3.2 GHz CPU clock.
    EXPECT_NEAR(ddr.peakBytesPerTick() * 3.2e9 / 1e9, 25.6, 0.1);
    EXPECT_NEAR(hbm.peakBytesPerTick() * 3.2e9 / 1e9, 204.8, 1.0);
}

TEST(DramDevice, ColdReadLatencyMatchesActRcdClBl)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    const Tick lat = timedRead(sim, dev, 0);
    // ACT -> tRCD -> RD -> tCL -> tBL, plus up to two controller-cycle
    // alignment slops.
    const Tick ideal =
        static_cast<Tick>(t.tRCD + t.tCL + t.burstCycles) * t.clkRatio;
    EXPECT_GE(lat, ideal);
    EXPECT_LE(lat, ideal + 3 * t.clkRatio);
    EXPECT_EQ(dev.stats().rowMisses.value(), 1.0);
}

TEST(DramDevice, RowHitIsFasterThanConflict)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    const DramTiming &t = dev.timing();
    timedRead(sim, dev, 0);
    // Same row, next block: a row hit.
    const Addr same_row = static_cast<Addr>(t.channels) *
                          t.bankGroups * t.banksPerGroup * BlockBytes *
                          0; // Column bits sit above bank bits.
    (void)same_row;
    const Tick hit_lat = timedRead(sim, dev, 0 + BlockBytes * 512);
    // Same bank, different row: decode row stride.
    const std::uint64_t row_stride =
        t.channels * t.bankGroups * t.banksPerGroup *
        t.blocksPerRow() * t.ranksPerChannel * BlockBytes;
    const Tick conflict_lat = timedRead(sim, dev, row_stride);
    EXPECT_GT(dev.stats().rowHits.value(), 0.0);
    EXPECT_GT(dev.stats().rowConflicts.value(), 0.0);
    EXPECT_LT(hit_lat, conflict_lat);
}

TEST(DramDevice, WritesCompleteOnAcceptance)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    bool done = false;
    auto req = makeRequest(0, true, Category::Demand,
                           MemSpace::OffPackage, 0,
                           [&](Tick) { done = true; });
    EXPECT_TRUE(dev.tryAccess(req, nullptr));
    EXPECT_TRUE(done) << "posted write must complete at acceptance";
    EXPECT_EQ(dev.stats().writeReqs.value(), 1.0);
}

TEST(DramDevice, ReadForwardsFromWriteQueue)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(128, true, Category::Demand,
                              MemSpace::OffPackage, 0), nullptr);
    Tick done = 0;
    dev.tryAccess(makeRequest(128, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }), nullptr);
    sim.run(10);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(dev.stats().forwards.value(), 1.0);
}

TEST(DramDevice, DuplicateWritesMerge)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(64, true, Category::Demand,
                              MemSpace::OffPackage, 0), nullptr);
    dev.tryAccess(makeRequest(64 + 8, true, Category::Demand,
                              MemSpace::OffPackage, 0), nullptr);
    EXPECT_EQ(dev.stats().mergedWrites.value(), 1.0);
}

TEST(DramDevice, BackpressureWhenQueueFull)
{
    Simulation sim;
    DramTiming t = DramTiming::ddr4_3200();
    t.readQueueDepth = 4;
    t.channels = 1;
    DramDevice dev(sim, "dram", t);
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (dev.tryAccess(makeRequest(
                static_cast<Addr>(i) * (1 << 20), false,
                Category::Demand, MemSpace::OffPackage, 0), nullptr)) {
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 4);
}

/**
 * A clocked sender on the retry-on-release protocol: offers its one
 * request whenever it is due, parks on refusal, and sleeps until the
 * refusing channel wakes it.
 */
class ParkingSender
{
  public:
    ParkingSender(Simulation &sim, MemPort &target, MemRequestPtr req)
        : sim_(sim), target_(target), req_(std::move(req))
    {
        waiter_.bind(sim, sim.addClocked(this, 1));
    }

    void
    tick()
    {
        if (!req_ || waiter_.blocked())
            return;
        ++attempts;
        if (target_.tryAccess(req_, &waiter_)) {
            acceptedAt = sim_.now();
            req_.reset();
        }
    }

    bool idle() const { return !req_; }

    Tick
    nextWorkTick() const
    {
        return !req_ || waiter_.blocked() ? MaxTick : Tick(0);
    }

    bool parked() const { return waiter_.blocked(); }
    bool accepted() const { return acceptedAt != MaxTick; }

    int attempts = 0;
    Tick acceptedAt = MaxTick;

  private:
    Simulation &sim_;
    MemPort &target_;
    MemRequestPtr req_;
    PortWaiter waiter_;
};

/** One DDR channel whose read queue holds two entries. */
DramTiming
tinyReadQueue()
{
    DramTiming t = DramTiming::ddr4_3200();
    t.readQueueDepth = 2;
    t.channels = 1;
    return t;
}

/** Fill the read queue with reads to distinct rows. */
void
fillReadQueue(DramDevice &dev)
{
    for (Addr i = 1; i <= 2; ++i) {
        ASSERT_TRUE(dev.tryAccess(
            makeRequest(i << 24, false, Category::Demand,
                        MemSpace::OffPackage, 0),
            nullptr));
    }
}

TEST(DramDevice, QueuedWriteAdmitsParkedReadByForwarding)
{
    Simulation sim;
    DramDevice dev(sim, "dram", tinyReadQueue());
    fillReadQueue(dev);
    ParkingSender s(sim, dev,
                    makeRequest(0x4000, false, Category::Demand,
                                MemSpace::OffPackage, 0));
    sim.run(1);
    ASSERT_TRUE(s.parked());
    EXPECT_EQ(dev.parkedSenders(), 1u);

    // The queued write holds the block's newest data: the woken read
    // forwards from it while the read queue is still full.
    ASSERT_TRUE(dev.tryAccess(makeRequest(0x4000, true, Category::Demand,
                                          MemSpace::OffPackage,
                                          sim.now()),
                              nullptr));
    EXPECT_FALSE(s.parked());
    sim.run(1);
    EXPECT_TRUE(s.accepted());
    EXPECT_EQ(s.attempts, 2);
    EXPECT_EQ(dev.stats().forwards.value(), 1.0);
    EXPECT_EQ(dev.channel(0).readQueueSize(), 2u);
    EXPECT_EQ(dev.parkedSenders(), 0u);
}

TEST(DramDevice, CasIssueWakesParkedReadsInRegistrationOrder)
{
    Simulation sim;
    DramDevice dev(sim, "dram", tinyReadQueue());
    fillReadQueue(dev);
    ParkingSender first(sim, dev,
                        makeRequest(3ULL << 24, false, Category::Demand,
                                    MemSpace::OffPackage, 0));
    ParkingSender second(sim, dev,
                         makeRequest(4ULL << 24, false,
                                     Category::Demand,
                                     MemSpace::OffPackage, 0));
    sim.run(1);
    ASSERT_TRUE(first.parked() && second.parked());

    // Each CAS frees one slot and wakes both senders; the earlier-
    // registered one takes the first slot, the other re-parks and
    // takes the next.
    for (int i = 0; i < 10'000 && !first.accepted(); ++i)
        sim.run(1);
    ASSERT_TRUE(first.accepted()) << "a freed slot must wake the queue";
    EXPECT_EQ(first.attempts, 2);
    EXPECT_FALSE(second.accepted());
    EXPECT_TRUE(second.parked());
    EXPECT_EQ(second.attempts, 2);
    for (int i = 0; i < 10'000 && !second.accepted(); ++i)
        sim.run(1);
    ASSERT_TRUE(second.accepted());
    EXPECT_EQ(second.attempts, 3);
    EXPECT_GT(second.acceptedAt, first.acceptedAt);
}

TEST(DramDevice, RefreshHappens)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    // Keep the device non-idle so clock edges advance it.
    Tick done = 0;
    dev.tryAccess(makeRequest(0, false, Category::Demand,
                              MemSpace::OffPackage, 0,
                              [&](Tick when) { done = when; }), nullptr);
    const Tick refi_ticks =
        static_cast<Tick>(dev.timing().tREFI) * dev.timing().clkRatio;
    sim.run(3 * refi_ticks);
    // Issue another access so post-refresh work happens.
    dev.tryAccess(makeRequest(BlockBytes, false, Category::Demand,
                              MemSpace::OffPackage, 0), nullptr);
    sim.run(refi_ticks);
    EXPECT_GE(dev.stats().refreshes.value(), 1.0);
}

TEST(DramDevice, CategoryAccounting)
{
    Simulation sim;
    DramDevice dev(sim, "dram", DramTiming::ddr4_3200());
    dev.tryAccess(makeRequest(0, false, Category::Fill,
                              MemSpace::OffPackage, 0), nullptr);
    dev.tryAccess(makeRequest(1 << 20, true, Category::Writeback,
                              MemSpace::OffPackage, 0), nullptr);
    sim.run(500);
    const auto &s = dev.stats();
    EXPECT_EQ(
        s.categoryBytes[static_cast<int>(Category::Fill)].value(),
        64.0);
    EXPECT_EQ(s.categoryBytes[static_cast<int>(Category::Writeback)]
                  .value(),
              64.0);
}

/**
 * The address of block @p column of @p row in the given bank of a
 * one-channel device under the default mapping (found by decoding
 * the row's address range, so the test does not restate the field
 * layout).
 */
Addr
addrOf(const DramTiming &t, std::uint32_t rank, std::uint32_t bank_group,
       std::uint32_t bank, std::uint64_t row, std::uint64_t column)
{
    const Addr stride = static_cast<Addr>(t.channels) *
                        t.ranksPerChannel * t.banksPerRank() * t.rowBytes;
    for (Addr a = row * stride; a < (row + 1) * stride; a += BlockBytes) {
        const DramCoord c =
            decodeAddress(a, t, MappingScheme::Co1ChBgBaCoRaRo);
        if (c.rank == rank && c.bankGroup == bank_group &&
            c.bank == bank && c.row == row && c.column == column)
            return a;
    }
    ADD_FAILURE() << "no address for the requested coordinates";
    return 0;
}

/** One DDR4 channel (two ranks). */
DramTiming
oneDdrChannel()
{
    DramTiming t = DramTiming::ddr4_3200();
    t.channels = 1;
    return t;
}

/** A read whose completion tick lands in @p done. */
MemRequestPtr
readInto(Addr addr, Tick now, Tick &done)
{
    return makeRequest(addr, false, Category::Demand,
                       MemSpace::OffPackage, now,
                       [&done](Tick when) { done = when; });
}

/** Row-buffer outcome counters of @p dev as (hits, misses, conflicts). */
std::tuple<double, double, double>
rowOutcomes(const DramDevice &dev)
{
    const DramStats &s = dev.stats();
    return {s.rowHits.value(), s.rowMisses.value(),
            s.rowConflicts.value()};
}

TEST(FrFcfs, YoungerRowHitIssuesBeforeOlderRowMiss)
{
    Simulation sim;
    const DramTiming t = oneDdrChannel();
    DramDevice dev(sim, "dram", t);
    timedRead(sim, dev, addrOf(t, 0, 1, 2, 0, 0)); // Open row 0.
    sim.run(1000);
    const auto [hits, misses, conflicts] = rowOutcomes(dev);

    // The older read needs another row of the same bank; plain FCFS
    // would precharge the bank under the younger read's open row.
    Tick older = 0;
    Tick younger = 0;
    ASSERT_TRUE(dev.tryAccess(
        readInto(addrOf(t, 0, 1, 2, 1, 0), sim.now(), older), nullptr));
    ASSERT_TRUE(dev.tryAccess(
        readInto(addrOf(t, 0, 1, 2, 0, 1), sim.now(), younger),
        nullptr));
    while (older == 0)
        sim.run(100);
    ASSERT_GT(younger, 0u);
    EXPECT_LT(younger, older);
    EXPECT_EQ(dev.stats().rowHits.value(), hits + 1);
    EXPECT_EQ(dev.stats().rowMisses.value(), misses);
    EXPECT_EQ(dev.stats().rowConflicts.value(), conflicts + 1);
}

TEST(FrFcfs, YoungerEntryNeverPrechargesTheOlderEntrysRow)
{
    Simulation sim;
    const DramTiming t = oneDdrChannel();
    DramDevice dev(sim, "dram", t);
    // Bank (bg 1, bank 2) holds row 0 open; bank (bg 1, bank 3) is in
    // the same bank group and holds row 5 open.
    timedRead(sim, dev, addrOf(t, 0, 1, 2, 0, 0));
    timedRead(sim, dev, addrOf(t, 0, 1, 3, 5, 0));
    sim.run(1000);
    const auto [hits, misses, conflicts] = rowOutcomes(dev);

    // The first read CASes at once and closes the bank group's tCCD
    // gate after the data bus is free again. In that window the older
    // row hit cannot CAS, and the bank's tRAS/tRTP have long passed:
    // only the bank's oldest entry may move it, so the younger
    // entry's row must not replace the older entry's open row.
    Tick first = 0;
    Tick older = 0;
    Tick younger = 0;
    ASSERT_TRUE(dev.tryAccess(
        readInto(addrOf(t, 0, 1, 3, 5, 1), sim.now(), first), nullptr));
    ASSERT_TRUE(dev.tryAccess(
        readInto(addrOf(t, 0, 1, 2, 0, 1), sim.now(), older), nullptr));
    ASSERT_TRUE(dev.tryAccess(
        readInto(addrOf(t, 0, 1, 2, 7, 0), sim.now(), younger),
        nullptr));
    while (younger == 0)
        sim.run(100);
    EXPECT_LT(first, older);
    EXPECT_LT(older, younger);
    EXPECT_EQ(dev.stats().rowHits.value(), hits + 2);
    EXPECT_EQ(dev.stats().rowMisses.value(), misses);
    EXPECT_EQ(dev.stats().rowConflicts.value(), conflicts + 1);
}

TEST(FrFcfs, WriteDrainRunsFromHighToLowWatermarkWhileReadsWait)
{
    Simulation sim;
    const DramTiming t = oneDdrChannel();
    DramDevice dev(sim, "dram", t);
    DramChannel &ch = dev.channel(0);
    timedRead(sim, dev, addrOf(t, 0, 0, 0, 0, 0)); // Open the read row.
    sim.run(1000);
    const auto [hits, misses, conflicts] = rowOutcomes(dev);
    const double reads_before = dev.stats().readReqs.value();
    // Write CASes so far: every CAS that was not a read's.
    auto write_cas = [&, h0 = hits, m0 = misses, c0 = conflicts] {
        const auto [h, m, c] = rowOutcomes(dev);
        return (h - h0) + (m - m0) + (c - c0) -
               (dev.stats().readReqs.value() - reads_before);
    };

    // Keep four reads to one row queued. Back-to-back row hits CAS
    // every tCCD, before the write CAS gate (tRTW, and the bus behind
    // tCL) opens, so outside drain mode the writes never get a slot.
    std::uint64_t read_row = 0;
    std::uint64_t read_col = 1;
    auto keep_reads_queued = [&] {
        while (ch.readQueueSize() < 4) {
            ASSERT_TRUE(dev.tryAccess(
                makeRequest(addrOf(t, 0, 0, 0, read_row,
                                   read_col++ % t.blocksPerRow()),
                            false, Category::Demand,
                            MemSpace::OffPackage, sim.now()),
                nullptr));
        }
    };
    // The writes the drain should leave queued go to a second row of
    // the write bank: issuing them needs a precharge and an activate,
    // so only drain mode would issue them ahead of waiting reads.
    const std::uint32_t drained = t.writeHighWatermark -
                                  t.writeLowWatermark;
    for (std::uint32_t w = 0; w < t.writeHighWatermark; ++w) {
        keep_reads_queued();
        ASSERT_EQ(write_cas(), 0.0)
            << "writes issued below the high watermark ("
            << ch.writeQueueSize() << " queued)";
        ASSERT_TRUE(dev.tryAccess(
            makeRequest(addrOf(t, 0, 2, 1, w < drained ? 3 : 4, w), true,
                        Category::Writeback, MemSpace::OffPackage,
                        sim.now()),
            nullptr));
        sim.run(1);
    }
    ASSERT_EQ(ch.writeQueueSize(), t.writeHighWatermark);

    // Drain mode. New reads go to another row of the read bank: they
    // need a precharge and an activate, and each write burst holds
    // the read CAS gate shut (tWTR), so they wait while the writes
    // drain. The drain stops at the low watermark because reads wait,
    // and the row-hit reads then keep the second-row writes queued.
    // The row hits still queued from before may fill gaps in the
    // write stream; the reads queued from here on wait.
    read_row = 1;
    const double read_limit = dev.stats().readReqs.value() +
                              static_cast<double>(ch.readQueueSize());
    for (int i = 0; i < 4000; ++i) {
        keep_reads_queued();
        sim.run(1);
        ASSERT_GE(ch.writeQueueSize(), t.writeLowWatermark);
        if (ch.writeQueueSize() > t.writeLowWatermark) {
            ASSERT_LE(dev.stats().readReqs.value(), read_limit)
                << "a new read issued while the drain ran";
        }
    }
    EXPECT_EQ(ch.writeQueueSize(), t.writeLowWatermark);
    EXPECT_EQ(write_cas(), static_cast<double>(drained));

    // No reads left: the rest of the writes drain.
    sim.run(4000);
    EXPECT_EQ(ch.readQueueSize(), 0u);
    EXPECT_EQ(ch.writeQueueSize(), 0u);
    EXPECT_EQ(write_cas(), static_cast<double>(t.writeHighWatermark));
}

/** Property: under random traffic every read completes, never faster
 *  than the device's minimum latency, and total data moved never
 *  exceeds the peak-bandwidth bound. */
class DramRandomTraffic
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{
};

TEST_P(DramRandomTraffic, AllReadsCompleteWithinBounds)
{
    const auto [seed, use_hbm] = GetParam();
    Simulation sim;
    const DramTiming t =
        use_hbm ? DramTiming::hbm2() : DramTiming::ddr4_3200();
    DramDevice dev(sim, "dram", t);
    Rng rng(seed);

    const int total = 2000;
    int completed = 0;
    Tick min_lat = MaxTick;
    const Tick start_all = sim.now();
    int issued = 0;
    std::vector<MemRequestPtr> pending;
    while (completed < total) {
        if (issued < total && pending.size() < 64) {
            const Addr addr =
                blockAlign(rng.nextRange(t.capacityBytes));
            const bool is_write = rng.chance(0.3);
            const Tick issue_tick = sim.now();
            auto req = makeRequest(
                addr, is_write, Category::Demand,
                MemSpace::OffPackage, issue_tick,
                [&, issue_tick](Tick when) {
                    ++completed;
                    if (when > issue_tick)
                        min_lat = std::min(min_lat, when - issue_tick);
                });
            if (dev.tryAccess(req, nullptr))
                ++issued;
        }
        sim.run(8);
    }
    EXPECT_EQ(completed, total);
    const double elapsed =
        static_cast<double>(sim.now() - start_all);
    const double moved = dev.stats().bytesRead.value() +
                         dev.stats().bytesWritten.value();
    EXPECT_LE(moved, t.peakBytesPerTick() * elapsed * 1.01 + 4096);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DramRandomTraffic,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()));

} // namespace
} // namespace nomad
