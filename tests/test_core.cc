/**
 * @file
 * Tests for the core model: issue/retire width, window-limited MLP,
 * TLB-walk coalescing, stall attribution (handler vs walk vs memory),
 * posted stores, and the instruction-limit plumbing.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/core.hh"
#include "dramcache/baseline_scheme.hh"

namespace nomad
{
namespace
{

/** Generator producing a fixed scripted stream (loops at the end). */
class ScriptedGen : public Generator
{
  public:
    InstrRecord
    next() override
    {
        if (script.empty())
            return InstrRecord{};
        const InstrRecord r = script[cursor];
        cursor = (cursor + 1) % script.size();
        return r;
    }

    std::vector<InstrRecord> script;
    std::size_t cursor = 0;
};

/** Memory that answers after a fixed delay. */
class FixedLatencyMem : public MemPort, public Clocked
{
  public:
    explicit FixedLatencyMem(Simulation &sim, Tick latency)
        : sim_(sim), latency_(latency)
    {
        sim.addClocked(this, 1);
    }

    bool
    tryAccess(const MemRequestPtr &req, PortWaiter *waiter) override
    {
        (void)waiter; // Never refuses.
        ++accesses;
        if (req->isWrite) {
            req->complete(sim_.now());
            return true;
        }
        auto r = req;
        const Tick done = sim_.now() + latency_;
        sim_.events().schedule(done, [r, done]() { r->complete(done); });
        return true;
    }

    void tick() override {}
    bool idle() const override { return true; }

    int accesses = 0;

  private:
    Simulation &sim_;
    Tick latency_;
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : pt(1 << 16), ddr(sim, "ddr", DramTiming::ddr4_3200()),
          scheme(sim, "base", ddr, pt), mem(sim, 20),
          tlb(sim, "tlb", TlbParams{16, 64, 4, 4})
    {
    }

    Core &
    makeCore(std::uint64_t limit, std::uint32_t width = 4)
    {
        CoreParams p;
        p.issueWidth = width;
        p.retireWidth = width;
        p.windowSize = 64;
        p.walkLatency = 50;
        p.instructionLimit = limit;
        p.branchRatio = 0.0; // Branch tests opt in explicitly.
        core = std::make_unique<Core>(sim, "cpu", 0, p, gen, tlb, mem,
                                      scheme, pt);
        return *core;
    }

    Simulation sim;
    PageTable pt;
    DramDevice ddr;
    BaselineScheme scheme;
    FixedLatencyMem mem;
    Tlb tlb;
    ScriptedGen gen;
    std::unique_ptr<Core> core;
};

TEST_F(CoreTest, PureAluStreamRetiresAtIssueWidth)
{
    gen.script = {InstrRecord{}}; // All non-memory.
    Core &c = makeCore(4000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_NEAR(c.ipc(), 4.0, 0.05);
    EXPECT_EQ(c.retiredTotal(), 4000u);
    EXPECT_EQ(c.stallHandler.value() + c.stallMem.value(), 0.0);
}

TEST_F(CoreTest, LoadsOverlapUpToWindow)
{
    // One load per instruction to distinct pages already warm in the
    // TLB: with latency 20 and window 64, loads pipeline and IPC stays
    // far above 1/20.
    gen.script.clear();
    for (int i = 0; i < 8; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = static_cast<Addr>(i) * BlockBytes * 8;
        gen.script.push_back(r);
    }
    Core &c = makeCore(4000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.ipc(), 1.0) << "independent loads must overlap";
    EXPECT_GT(mem.accesses, 3000);
}

TEST_F(CoreTest, TlbMissesToSamePageCoalesceIntoOneWalk)
{
    // A burst of accesses to the same cold page: one walk, not N.
    gen.script.clear();
    for (int i = 0; i < 16; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = 0x5000 + i * 64;
        gen.script.push_back(r);
    }
    InstrRecord alu;
    for (int i = 0; i < 64; ++i)
        gen.script.push_back(alu);
    Core &c = makeCore(80);
    while (!c.done())
        sim.run(100);
    EXPECT_EQ(c.walks.value(), 1.0)
        << "16 concurrent misses to one page coalesce into one walk";
}

TEST_F(CoreTest, StallAttributionSeparatesWalkFromMemory)
{
    // Strided cold pages: every access is a TLB miss + memory access.
    gen.script.clear();
    for (int i = 0; i < 64; ++i) {
        InstrRecord r;
        r.isMem = true;
        r.vaddr = static_cast<Addr>(i + 1) * PageBytes;
        gen.script.push_back(r);
    }
    Core &c = makeCore(64, 1);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.stallWalk.value(), 0.0);
    EXPECT_GT(c.stallMem.value(), 0.0);
    EXPECT_EQ(c.stallHandler.value(), 0.0)
        << "the baseline scheme runs no OS handler";
}

TEST_F(CoreTest, PostedStoresDoNotStallRetirement)
{
    gen.script.clear();
    InstrRecord st;
    st.isMem = true;
    st.isWrite = true;
    st.vaddr = 0x9000;
    gen.script.push_back(st);
    Core &c = makeCore(2000, 4);
    while (!c.done())
        sim.run(100);
    EXPECT_GT(c.ipc(), 2.0) << "stores retire without waiting on data";
    // Dispatched stores include a few beyond the retirement limit.
    EXPECT_GE(c.stores.value(), 2000.0);
}

TEST_F(CoreTest, InstructionLimitRaisesAndResumes)
{
    gen.script = {InstrRecord{}};
    Core &c = makeCore(100);
    while (!c.done())
        sim.run(50);
    EXPECT_EQ(c.retiredTotal(), 100u);
    c.setInstructionLimit(250);
    EXPECT_FALSE(c.done());
    while (!c.done())
        sim.run(50);
    EXPECT_EQ(c.retiredTotal(), 250u);
}

TEST_F(CoreTest, BranchMispredictsThrottleTheFrontEnd)
{
    gen.script = {InstrRecord{}};
    Core &fast = makeCore(20'000, 4);
    while (!fast.done())
        sim.run(100);
    const double ipc_nobranch = fast.ipc();

    CoreParams p;
    p.issueWidth = 4;
    p.retireWidth = 4;
    p.windowSize = 64;
    p.instructionLimit = 20'000;
    p.branchRatio = 0.2;
    p.mispredictRate = 0.05;
    p.flushPenalty = 20;
    Core slow(sim, "cpu_b", 1, p, gen, tlb, mem, scheme, pt);
    while (!slow.done())
        sim.run(100);
    EXPECT_GT(slow.branches.value(), 3000.0);
    EXPECT_GT(slow.mispredicts.value(), 100.0);
    EXPECT_LT(slow.ipc(), ipc_nobranch * 0.9)
        << "mispredictions must cost front-end bandwidth";
}

TEST_F(CoreTest, DirtyBitSetOnStoreTranslation)
{
    gen.script.clear();
    InstrRecord st;
    st.isMem = true;
    st.isWrite = true;
    st.vaddr = 0xA000;
    gen.script.push_back(st);
    Core &c = makeCore(4, 1);
    while (!c.done())
        sim.run(50);
    Pte *pte = pt.find(pageOf(Addr{0xA000}));
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->dirty);
}

} // namespace
} // namespace nomad
