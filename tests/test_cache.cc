/**
 * @file
 * Unit tests for the non-blocking SRAM cache: hits/misses, MSHR
 * merging and exhaustion, write-back behaviour, full-line writeback
 * installs, replacement policies, range invalidation, and the
 * dual-address-space tagging OS-managed DC schemes rely on.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "cache/sram_cache.hh"
#include "sim/rng.hh"
#include "sim/waiter.hh"

namespace nomad
{
namespace
{

/** Scripted downstream memory with manual response control. */
class ScriptedMemory : public MemPort
{
  public:
    bool
    tryAccess(const MemRequestPtr &req, PortWaiter *waiter) override
    {
        if (rejectAll) {
            waiters.park(waiter);
            return false;
        }
        if (req->isWrite) {
            writes.push_back(req);
            req->complete(0);
            return true;
        }
        reads.push_back(req);
        return true;
    }

    /** Complete the oldest outstanding read. */
    void
    respondOne(Tick when)
    {
        ASSERT_FALSE(reads.empty());
        auto req = reads.front();
        reads.pop_front();
        req->complete(when);
    }

    /** Stop refusing and wake every parked sender. */
    void
    release()
    {
        rejectAll = false;
        waiters.wakeAll();
    }

    std::deque<MemRequestPtr> reads;
    std::deque<MemRequestPtr> writes;
    bool rejectAll = false;
    WaiterList waiters;
};

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
    {
        params.sizeBytes = 4 * 1024; // 64 lines.
        params.assoc = 4;
        params.hitLatency = 2;
        params.mshrs = 4;
        params.targetsPerMshr = 2;
        cache = std::make_unique<SramCache>(sim, "c", params, &mem);
    }

    MemRequestPtr
    read(Addr addr, bool *done = nullptr)
    {
        auto req = makeRequest(addr, false, Category::Demand,
                               MemSpace::OffPackage, sim.now(),
                               done ? [done](Tick) { *done = true; }
                                    : MemRequest::Callback{});
        return req;
    }

    Simulation sim;
    ScriptedMemory mem;
    CacheParams params;
    std::unique_ptr<SramCache> cache;
};

TEST_F(CacheTest, ColdMissFetchesAndInstalls)
{
    bool done = false;
    ASSERT_TRUE(cache->tryAccess(read(0x100, &done), nullptr));
    EXPECT_EQ(cache->misses.value(), 1.0);
    ASSERT_EQ(mem.reads.size(), 1u);
    EXPECT_EQ(mem.reads.front()->addr, blockAlign(Addr{0x100}));
    mem.respondOne(50);
    EXPECT_TRUE(done);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x100));
}

TEST_F(CacheTest, HitCompletesAfterHitLatency)
{
    bool done = false;
    cache->tryAccess(read(0x100), nullptr);
    mem.respondOne(10);
    ASSERT_TRUE(cache->tryAccess(read(0x108, &done), nullptr));
    EXPECT_EQ(cache->hits.value(), 1.0);
    EXPECT_FALSE(done) << "hit completes after hitLatency, not inline";
    sim.run(params.hitLatency + 1);
    EXPECT_TRUE(done);
}

TEST_F(CacheTest, ConcurrentMissesMergeIntoOneFill)
{
    bool a = false, b = false;
    cache->tryAccess(read(0x200, &a), nullptr);
    cache->tryAccess(read(0x210, &b), nullptr);
    EXPECT_EQ(cache->misses.value(), 1.0);
    EXPECT_EQ(cache->missesMerged.value(), 1.0);
    ASSERT_EQ(mem.reads.size(), 1u);
    mem.respondOne(30);
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
}

TEST_F(CacheTest, MergeTargetsBounded)
{
    cache->tryAccess(read(0x200), nullptr);
    ASSERT_TRUE(cache->tryAccess(read(0x208), nullptr));
    // targetsPerMshr = 2: the third access to the block is refused.
    EXPECT_FALSE(cache->tryAccess(read(0x210), nullptr));
    EXPECT_EQ(cache->rejects.value(), 1.0);
}

TEST_F(CacheTest, MshrPoolBounded)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(cache->tryAccess(
            read(static_cast<Addr>(i) * BlockBytes), nullptr));
    EXPECT_FALSE(cache->tryAccess(read(0x10000), nullptr));
    EXPECT_EQ(cache->rejects.value(), 1.0);
    mem.respondOne(10);
    EXPECT_TRUE(cache->tryAccess(read(0x10000), nullptr));
}

TEST_F(CacheTest, DirtyVictimWritesBack)
{
    // 16 sets: fill one set's 4 ways with writes, then evict.
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        auto wr = makeRequest(w * set_stride, true, Category::Demand,
                              MemSpace::OffPackage, sim.now());
        cache->tryAccess(wr, nullptr);
        mem.respondOne(10); // Write-allocate fill.
    }
    EXPECT_EQ(mem.writes.size(), 0u);
    cache->tryAccess(read(4 * set_stride), nullptr);
    mem.respondOne(20); // Fill for the new line evicts the LRU way.
    ASSERT_EQ(mem.writes.size(), 1u);
    EXPECT_EQ(mem.writes.front()->addr, 0u);
    EXPECT_TRUE(mem.writes.front()->fullLine);
    EXPECT_EQ(cache->writebacks.value(), 1.0);
}

TEST_F(CacheTest, FullLineWritebackInstallsWithoutFill)
{
    auto wb = makeRequest(0x300, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    wb->fullLine = true;
    ASSERT_TRUE(cache->tryAccess(wb, nullptr));
    EXPECT_EQ(mem.reads.size(), 0u) << "no fetch for a full-line write";
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x300));
    EXPECT_EQ(cache->misses.value(), 0.0);
}

TEST_F(CacheTest, AddressSpacesDoNotAlias)
{
    cache->tryAccess(read(0x400), nullptr);
    mem.respondOne(10);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0x400));
    EXPECT_FALSE(cache->isCached(MemSpace::OnPackage, 0x400));
    auto req = makeRequest(0x400, false, Category::Demand,
                           MemSpace::OnPackage, sim.now(), nullptr);
    cache->tryAccess(req, nullptr);
    EXPECT_EQ(cache->misses.value(), 2.0)
        << "the on-package copy misses independently";
}

TEST_F(CacheTest, InvalidateRangeFlushesDirtyAndDiscardsFills)
{
    // Dirty line in the range.
    auto wr = makeRequest(0x500, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    cache->tryAccess(wr, nullptr);
    mem.respondOne(10);
    // In-flight fill into the range.
    cache->tryAccess(read(0x540), nullptr);
    const auto killed =
        cache->invalidateRange(MemSpace::OffPackage, 0x500, 0x100);
    EXPECT_EQ(killed, 1u);
    EXPECT_EQ(mem.writes.size(), 1u) << "dirty line flushed";
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, 0x500));
    mem.respondOne(30);
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, 0x540))
        << "fill into an invalidated range must not install";
}

TEST_F(CacheTest, LruPolicyEvictsLeastRecent)
{
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        cache->tryAccess(read(w * set_stride), nullptr);
        mem.respondOne(10);
    }
    // Touch way 0 so way 1 becomes LRU.
    cache->tryAccess(read(0), nullptr);
    cache->tryAccess(read(4 * set_stride), nullptr);
    mem.respondOne(20);
    EXPECT_TRUE(cache->isCached(MemSpace::OffPackage, 0));
    EXPECT_FALSE(cache->isCached(MemSpace::OffPackage, set_stride));
}

TEST_F(CacheTest, DownstreamBackpressureRetries)
{
    mem.rejectAll = true;
    cache->tryAccess(read(0x600), nullptr);
    EXPECT_EQ(mem.reads.size(), 0u);
    sim.run(3);
    EXPECT_EQ(mem.reads.size(), 0u) << "a parked queue does not poll";
    mem.release();
    sim.run(3); // tick() retries the woken send queue.
    EXPECT_EQ(mem.reads.size(), 1u);
}

/**
 * A clocked sender on the retry-on-release protocol: offers its one
 * request whenever it is due, parks on refusal, and sleeps
 * (nextWorkTick() == MaxTick) until the refusing target wakes it.
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

/** Occupy all four MSHRs with misses to distinct blocks. */
void
fillMshrs(SramCache &cache, ScriptedMemory &mem)
{
    for (Addr a = 0; a < 4; ++a) {
        ASSERT_TRUE(cache.tryAccess(
            makeRequest(0x10000 + a * 0x1000, false, Category::Demand,
                        MemSpace::OffPackage, 0),
            nullptr));
    }
    ASSERT_EQ(mem.reads.size(), 4u);
}

TEST_F(CacheTest, ParkedSenderIsWokenByAFill)
{
    fillMshrs(*cache, mem);
    ParkingSender s(sim, *cache, read(0x5000));
    sim.run(5);
    EXPECT_EQ(s.attempts, 1) << "a refused sender parks, never polls";
    EXPECT_TRUE(s.parked());
    EXPECT_EQ(cache->rejects.value(), 1.0);
    EXPECT_EQ(cache->parkedSenders(), 1u);

    mem.respondOne(sim.now()); // Frees an MSHR and wakes the sender.
    EXPECT_FALSE(s.parked());
    EXPECT_EQ(cache->parkedSenders(), 0u);
    sim.run(2);
    EXPECT_TRUE(s.accepted());
    EXPECT_EQ(s.attempts, 2);
    EXPECT_EQ(cache->misses.value(), 5.0);
}

TEST_F(CacheTest, ParkedSenderIsWokenByInvalidateRange)
{
    // targetsPerMshr = 2: a third access to the block is refused
    // until the MSHR stops accepting merges.
    cache->tryAccess(read(0x200), nullptr);
    cache->tryAccess(read(0x208), nullptr);
    ParkingSender s(sim, *cache, read(0x210));
    sim.run(5);
    ASSERT_TRUE(s.parked());
    EXPECT_EQ(s.attempts, 1);

    // Discarding the MSHR lets the retry allocate a fresh one.
    cache->invalidateRange(MemSpace::OffPackage, 0x200, BlockBytes);
    EXPECT_FALSE(s.parked());
    sim.run(2);
    EXPECT_TRUE(s.accepted());
    EXPECT_EQ(s.attempts, 2);
    EXPECT_EQ(cache->misses.value(), 2.0);
}

TEST_F(CacheTest, ParkedSenderIsWokenByAFullLineInstall)
{
    fillMshrs(*cache, mem);
    ParkingSender s(sim, *cache, read(0x7008));
    sim.run(5);
    ASSERT_TRUE(s.parked());

    // A full-line writeback of the block installs it without an MSHR;
    // the woken retry hits the installed line.
    auto wb = makeRequest(0x7000, true, Category::Demand,
                          MemSpace::OffPackage, sim.now());
    wb->fullLine = true;
    ASSERT_TRUE(cache->tryAccess(wb, nullptr));
    EXPECT_FALSE(s.parked());
    sim.run(2);
    EXPECT_TRUE(s.accepted());
    EXPECT_EQ(cache->hits.value(), 2.0); // The install, then the retry.
}

TEST_F(CacheTest, WokenSendersRefireInRegistrationOrder)
{
    fillMshrs(*cache, mem);
    ParkingSender first(sim, *cache, read(0x5000));
    ParkingSender second(sim, *cache, read(0x6000));
    ParkingSender third(sim, *cache, read(0x7000));
    sim.run(5);
    ASSERT_TRUE(first.parked() && second.parked() && third.parked());
    EXPECT_EQ(cache->parkedSenders(), 3u);

    // One freed MSHR wakes all three; the first-registered sender
    // wins it, exactly as under per-tick polling, and the others are
    // refused once more and park again.
    mem.respondOne(sim.now());
    sim.run(3);
    EXPECT_TRUE(first.accepted());
    EXPECT_FALSE(second.accepted());
    EXPECT_FALSE(third.accepted());
    EXPECT_EQ(second.attempts, 2);
    EXPECT_EQ(third.attempts, 2);
    EXPECT_TRUE(second.parked() && third.parked());
    EXPECT_EQ(cache->rejects.value(), 5.0);
    EXPECT_EQ(cache->parkedSenders(), 2u);
}

/** Property: under random traffic with eager responses, accounting is
 *  conserved and isCached() only reports blocks that were accessed. */
class CacheRandomTraffic
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, CacheReplPolicy, std::uint64_t>>
{
};

TEST_P(CacheRandomTraffic, ConservationAndReachability)
{
    const auto [assoc, policy, seed] = GetParam();
    Simulation sim;
    ScriptedMemory mem;
    CacheParams p;
    p.sizeBytes = 8 * 1024;
    p.assoc = assoc;
    p.mshrs = 8;
    p.targetsPerMshr = 4;
    p.policy = policy;
    SramCache cache(sim, "c", p, &mem);
    Rng rng(seed);
    std::set<Addr> touched;
    int accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = rng.nextRange(64 * 1024) & ~Addr{63};
        auto req = makeRequest(addr, rng.chance(0.3), Category::Demand,
                               MemSpace::OffPackage, sim.now(),
                               nullptr);
        if (cache.tryAccess(req, nullptr)) {
            ++accepted;
            touched.insert(addr);
        }
        while (!mem.reads.empty())
            mem.respondOne(sim.now() + 10);
        sim.run(2);
    }
    EXPECT_EQ(cache.hits.value() + cache.misses.value() +
                  cache.missesMerged.value(),
              accepted);
    // Everything cached was genuinely accessed.
    int cached = 0;
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        if (cache.isCached(MemSpace::OffPackage, a)) {
            ++cached;
            EXPECT_EQ(touched.count(a), 1u) << a;
        }
    }
    EXPECT_LE(cached, static_cast<int>(p.sizeBytes / 64));
    EXPECT_GT(cached, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheRandomTraffic,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(CacheReplPolicy::Lru,
                                         CacheReplPolicy::Fifo),
                       ::testing::Values(3, 7)));

TEST(CacheFifo, FifoEvictsOldestInsert)
{
    Simulation sim;
    ScriptedMemory mem;
    CacheParams p;
    p.sizeBytes = 4 * 1024;
    p.assoc = 4;
    p.policy = CacheReplPolicy::Fifo;
    SramCache cache(sim, "fifo", p, &mem);
    const Addr set_stride = 16 * BlockBytes;
    for (int w = 0; w < 4; ++w) {
        auto req = makeRequest(w * set_stride, false, Category::Demand,
                               MemSpace::OffPackage, 0, nullptr);
        cache.tryAccess(req, nullptr);
        mem.respondOne(10);
    }
    // Touch way 0 (irrelevant under FIFO), then insert a 5th line.
    auto req = makeRequest(0, false, Category::Demand,
                           MemSpace::OffPackage, 0, nullptr);
    cache.tryAccess(req, nullptr);
    auto req5 = makeRequest(4 * set_stride, false, Category::Demand,
                            MemSpace::OffPackage, 0, nullptr);
    cache.tryAccess(req5, nullptr);
    mem.respondOne(20);
    EXPECT_FALSE(cache.isCached(MemSpace::OffPackage, 0))
        << "FIFO evicts the oldest insert even if recently used";
}

} // namespace
} // namespace nomad
