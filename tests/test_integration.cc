/**
 * @file
 * Cross-module integration and property tests on full systems:
 * conservation invariants, scheme-ordering properties the paper's
 * evaluation depends on, determinism, warm-up/measure plumbing, and
 * trace-driven equivalence.
 */

#include <gtest/gtest.h>

#include "dramcache/os_managed_scheme.hh"
#include "system/system.hh"

namespace nomad
{
namespace
{

SystemConfig
smallConfig(SchemeKind scheme, const std::string &workload,
            std::uint64_t instr = 40'000)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = scheme;
    cfg.workload = workload;
    cfg.instructionsPerCore = instr;
    cfg.warmupInstructionsPerCore = instr;
    cfg.dcFrames = 512;
    return cfg;
}

/** Property: core accounting is conserved for every scheme. */
class Conservation
    : public ::testing::TestWithParam<std::tuple<SchemeKind,
                                                 const char *>>
{
};

TEST_P(Conservation, CountsAddUp)
{
    const auto [scheme, workload] = GetParam();
    System system(smallConfig(scheme, workload));
    const SystemResults r = system.run();

    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        Core &core = system.core(c);
        // Retired exactly the budget.
        EXPECT_EQ(core.retiredTotal(), 80'000u);
        // Loads + stores == memory ops.
        EXPECT_EQ(core.loads.value() + core.stores.value(),
                  core.memOps.value());
        // Stall cycles can never exceed elapsed cycles.
        EXPECT_LE(core.stallHandler.value() + core.stallWalk.value() +
                      core.stallMem.value(),
                  core.cycles.value());
    }
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GE(r.memStallRatio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByWorkload, Conservation,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::Tid,
                                         SchemeKind::Tdc,
                                         SchemeKind::Nomad,
                                         SchemeKind::Ideal),
                       ::testing::Values("cact", "mcf", "pr")),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               "_" + std::get<1>(info.param);
    });

/** Property: OS-managed schemes' frame accounting is conserved. */
class FrameConservation
    : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(FrameConservation, FillsMinusEvictionsMatchOccupancy)
{
    System system(smallConfig(GetParam(), "cact"));
    system.run();
    const auto &os =
        static_cast<const OsManagedScheme &>(system.scheme());
    const auto &fe = os.frontEnd();
    // Frames: free + allocated == capacity, where allocated frames
    // are total fills minus evictions (warm-up counters were reset,
    // so recompute from the live CPD array instead).
    std::uint64_t valid = 0;
    for (PageNum cfn = 0; cfn < fe.numFrames(); ++cfn)
        valid += fe.cpd(cfn).valid ? 1 : 0;
    EXPECT_EQ(valid + fe.freeFrames(), fe.numFrames());
    // Every valid CPD maps a cached PTE-visible frame.
    for (PageNum cfn = 0; cfn < fe.numFrames(); ++cfn) {
        if (!fe.cpd(cfn).valid)
            continue;
        const PageNum pfn = fe.cpd(cfn).pfn;
        EXPECT_TRUE(system.pageTable().ppd(pfn).cached)
            << "CFN " << cfn;
    }
}

INSTANTIATE_TEST_SUITE_P(OsSchemes, FrameConservation,
                         ::testing::Values(SchemeKind::Tdc,
                                           SchemeKind::Nomad,
                                           SchemeKind::Ideal),
                         [](const auto &info) {
                             return std::string(
                                 schemeKindName(info.param));
                         });

TEST(Determinism, SameSeedSameResult)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "libq");
    System a(cfg), b(cfg);
    const SystemResults ra = a.run();
    const SystemResults rb = b.run();
    EXPECT_EQ(ra.elapsedCycles, rb.elapsedCycles);
    EXPECT_EQ(ra.fills, rb.fills);
    EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
}

TEST(Determinism, DifferentSeedDifferentStream)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "libq");
    System a(cfg);
    cfg.seed = 999;
    System b(cfg);
    EXPECT_NE(a.run().elapsedCycles, b.run().elapsedCycles);
}

TEST(SchemeOrdering, IdealIsAnUpperBoundForOsSchemes)
{
    const char *workloads[] = {"cact", "libq", "mcf"};
    for (const char *w : workloads) {
        System ideal(smallConfig(SchemeKind::Ideal, w));
        System nomad(smallConfig(SchemeKind::Nomad, w));
        System tdc(smallConfig(SchemeKind::Tdc, w));
        const double ipc_ideal = ideal.run().ipc;
        EXPECT_GE(ipc_ideal * 1.05, nomad.run().ipc) << w;
        EXPECT_GE(ipc_ideal * 1.05, tdc.run().ipc) << w;
    }
}

TEST(SchemeOrdering, NomadCutsOsStallsVersusTdc)
{
    // The paper's central claim, at smoke scale: on a high-RMHB
    // workload the non-blocking front-end slashes OS stall cycles.
    System tdc(smallConfig(SchemeKind::Tdc, "cact", 60'000));
    System nomad(smallConfig(SchemeKind::Nomad, "cact", 60'000));
    const double tdc_os = tdc.run().handlerStallRatio;
    const double nomad_os = nomad.run().handlerStallRatio;
    EXPECT_GT(tdc_os, 0.10) << "blocking TDC must stall substantially";
    EXPECT_LT(nomad_os, tdc_os * 0.7)
        << "NOMAD must cut OS stalls by a large factor";
}

TEST(SchemeOrdering, FewClassSchemesConverge)
{
    // Few-class workloads have negligible miss handling; TDC and
    // NOMAD should land close together once the hot set is warm.
    System tdc(smallConfig(SchemeKind::Tdc, "pr", 100'000));
    System nomad(smallConfig(SchemeKind::Nomad, "pr", 100'000));
    const double a = tdc.run().ipc;
    const double b = nomad.run().ipc;
    EXPECT_NEAR(a / b, 1.0, 0.15);
}

TEST(Metrics, BandwidthBreakdownOnlyWhereExpected)
{
    // Baseline never touches HBM; OS schemes never spend metadata.
    System base(smallConfig(SchemeKind::Baseline, "libq"));
    const SystemResults rb = base.run();
    EXPECT_EQ(rb.hbmDemandGBs + rb.hbmFillGBs + rb.hbmWritebackGBs +
                  rb.hbmMetadataGBs,
              0.0);

    System nomad(smallConfig(SchemeKind::Nomad, "libq"));
    const SystemResults rn = nomad.run();
    EXPECT_EQ(rn.hbmMetadataGBs, 0.0)
        << "OS-managed tags live in PTEs, not DRAM";
    EXPECT_GT(rn.hbmFillGBs, 0.0);

    System tid(smallConfig(SchemeKind::Tid, "libq"));
    const SystemResults rt = tid.run();
    EXPECT_GT(rt.hbmMetadataGBs, 0.0)
        << "tags-in-DRAM must burn metadata bandwidth";
}

TEST(Warmup, MeasuredWindowExcludesWarmup)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "mcf");
    System system(cfg);
    system.runWarmup();
    const double warm_fills =
        static_cast<const OsManagedScheme &>(system.scheme())
            .frontEnd()
            .tagMisses.value();
    EXPECT_GT(warm_fills, 0.0);
    const SystemResults r = system.runMeasured();
    // Stats were reset: measured fills are counted fresh.
    EXPECT_LT(static_cast<double>(r.fills), warm_fills * 10);
    EXPECT_GT(r.elapsedCycles, 0.0);
}

TEST(NomadProperties, AreaOptimizedKeepsCorrectnessAtOneBuffer)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "libq");
    cfg.nomad.backEnd.numPcshrs = 8;
    cfg.nomad.backEnd.numBuffers = 1;
    System system(cfg);
    const SystemResults r = system.run();
    EXPECT_GT(r.ipc, 0.0);
    for (std::uint32_t c = 0; c < system.numCores(); ++c)
        EXPECT_EQ(system.core(c).retiredTotal(), 80'000u);
}

TEST(NomadProperties, VerifyLatencyCostsLittle)
{
    // Paper: even a full CPU cycle of PCSHR-CAM verification costs
    // ~0.1% performance.
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "libq");
    System base_sys(cfg);
    const double base = base_sys.run().ipc;
    cfg.nomad.verifyLatency = 1;
    System delayed(cfg);
    EXPECT_GT(delayed.run().ipc, base * 0.95);
}

TEST(NomadProperties, DelayedVerifyReleasesEveryRequest)
{
    // Data hits forwarded after the verify delay, refused ones
    // included, must hand every request back to the pool by teardown.
    const std::uint64_t before = liveRequestCount();
    {
        SystemConfig cfg = smallConfig(SchemeKind::Nomad, "libq");
        cfg.nomad.verifyLatency = 1;
        System system(cfg);
        EXPECT_GT(system.run().ipc, 0.0);
        EXPECT_GT(system.hbm().stats().readReqs.value(), 0.0);
    }
    EXPECT_EQ(liveRequestCount(), before);
}

TEST(NomadProperties, ShootdownAvoidanceOutperformsShootdowns)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "pr", 60'000);
    System avoid(cfg);
    cfg.nomad.frontEnd.tlbShootdownAvoidance = false;
    System shoot(cfg);
    const double ipc_avoid = avoid.run().ipc;
    const double ipc_shoot = shoot.run().ipc;
    EXPECT_GT(ipc_avoid, ipc_shoot)
        << "the TLB directory must pay for itself on hot sets";
}

TEST(NomadProperties, MostDataMissesHitPageCopyBuffers)
{
    // Paper Section III-E: 91.6% of data misses hit in page copy
    // buffers because the faulting access restarts right behind the
    // critical-data-first fetch. Require a strong majority on a
    // sequential streaming workload.
    System nomad(smallConfig(SchemeKind::Nomad, "libq", 80'000));
    const SystemResults r = nomad.run();
    EXPECT_GT(r.bufferHitRate, 0.5);
}

TEST(NomadProperties, DistributedBackEndsBalanceCommands)
{
    SystemConfig cfg = smallConfig(SchemeKind::Nomad, "cact");
    cfg.nomad.numBackEnds = 2;
    cfg.nomad.backEnd.numPcshrs = 4;
    System system(cfg);
    system.run();
    auto &scheme = static_cast<NomadScheme &>(system.scheme());
    const double a = scheme.backEnd(0).fillCommands.value();
    const double b = scheme.backEnd(1).fillCommands.value();
    ASSERT_GT(a + b, 50.0);
    // FIFO CFN allocation alternates back-ends nearly perfectly.
    EXPECT_NEAR(a / (a + b), 0.5, 0.05);
}

} // namespace
} // namespace nomad
