#include "tiering_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "harden/diag.hh"
#include "sim/stat_sampler.hh"
#include "system/system.hh"

namespace nomad
{

TieringScheme::TieringScheme(Simulation &sim, const std::string &name,
                             const TieringParams &params,
                             DramDevice &off_package,
                             DramDevice &on_package,
                             PageTable &page_table)
    : DramCacheScheme(sim, name, off_package, &on_package, page_table),
      nearReadLatency(name + ".nearReadLatency",
                      "near-tier demand-read access time (ticks)",
                      /*bucket_width=*/16, /*num_buckets=*/64),
      farReadLatency(name + ".farReadLatency",
                     "far-tier demand-read access time (ticks)",
                     /*bucket_width=*/64, /*num_buckets=*/160),
      params_(params)
{
    farLink_ = std::make_unique<FarTierLink>(
        sim, name + ".farlink", off_package, params.farLinkTicks);
    engine_ = std::make_unique<MigrationEngine>(
        sim, name + ".engine", params.engine, on_package, *farLink_);
    frontend_ = std::make_unique<TieringFrontEnd>(
        sim, name + ".frontend", params, page_table, *engine_);

    auto &reg = sim.statistics();
    reg.add(&nearReadLatency);
    reg.add(&farReadLatency);
}

void
TieringScheme::trackTier(const MemRequestPtr &req,
                         stats::Distribution &dist)
{
    // Wrap the completion so the per-tier distribution samples the
    // same interval as demandReadLatency. Guarded by latencyTracked
    // (set by trackDemandRead below) so a rejected-and-retried
    // request is wrapped only once.
    if (req->isWrite || req->category != Category::Demand ||
        req->latencyTracked) {
        return;
    }
    stats::Distribution *d = &dist;
    const Tick start = curTick();
    auto cb = std::move(req->onComplete);
    req->onComplete = [d, start, cb = std::move(cb)](Tick when) mutable {
        d->sample(static_cast<double>(when - start));
        if (cb)
            cb(when);
    };
    trackDemandRead(req);
}

bool
TieringScheme::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    if (req->space == MemSpace::OnPackage) {
        trackTier(req, nearReadLatency);
        if (!onPackage_->tryAccess(req, waiter))
            return false;
        if (req->isWrite)
            frontend_->noteNearWrite(pageOf(req->addr));
        return true;
    }
    trackTier(req, farReadLatency);
    if (!farLink_->tryAccess(req, waiter))
        return false;
    // Hotness sampling and write-abort happen only once the device
    // accepts, so rejected-and-retried accesses are not double-counted.
    if (req->category == Category::Demand)
        frontend_->onFarAccess(pageOf(req->addr), req->isWrite);
    return true;
}

void
TieringScheme::collectStats(SystemResults &r) const
{
    const TieringFrontEnd &fe = *frontend_;
    const MigrationEngine &eng = *engine_;
    r.promotions =
        static_cast<std::uint64_t>(fe.promotionsCommitted.value());
    r.demotions = static_cast<std::uint64_t>(
        fe.demotionsClean.value() + fe.demotionsDirty.value());
    r.migrationAborts =
        static_cast<std::uint64_t>(eng.writeAborts.value());
    // fills/writebacks keep their cross-scheme meaning: pages moved
    // near / dirty pages written back far. Clean demotions are
    // metadata-only and move no data (the non-exclusive win).
    r.fills = r.promotions;
    r.writebacks =
        static_cast<std::uint64_t>(fe.demotionsDirty.value());
    const double bytes =
        (fe.promotionsCommitted.value() + fe.demotionsDirty.value()) *
        static_cast<double>(PageBytes);
    r.rmhbGBs = r.seconds > 0 ? bytes / BytesPerGB / r.seconds : 0;
    r.nearReadP50 = nearReadLatency.percentile(0.50);
    r.nearReadP99 = nearReadLatency.percentile(0.99);
    r.farReadP50 = farReadLatency.percentile(0.50);
    r.farReadP99 = farReadLatency.percentile(0.99);
}

void
TieringScheme::samplerProbes(StatSampler &sampler)
{
    TieringFrontEnd &fe = *frontend_;
    MigrationEngine &eng = *engine_;
    sampler.addProbe(fe.name() + ".freeFrames", [&fe]() {
        return static_cast<double>(fe.freeFrames());
    });
    sampler.addProbe(eng.name() + ".activeSlots", [&eng]() {
        return static_cast<double>(eng.activeSlots());
    });
    sampler.addStat(&fe.promotionsCommitted);
    sampler.addStat(&eng.writeAborts);
}

void
registerTieringScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Tiering;
    entry.name = schemeKindName(SchemeKind::Tiering);
    entry.description =
        "CXL-style non-exclusive tiering with transactional migration";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        const SystemConfig &cfg = ctx.config;
        TieringParams p = cfg.tiering;
        if (p.nearFrames == 0)
            p.nearFrames = cfg.dcFrames;
        if (p.engine.copyTimeoutTicks == 0)
            p.engine.copyTimeoutTicks = ctx.copyTimeoutTicks;
        return std::make_unique<TieringScheme>(
            ctx.sim, "tiering", p, ctx.offPackage, ctx.onPackage,
            ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        if (cfg.tiering.promoteThreshold == 0)
            reject("tiering.promoteThreshold must be >= 1; a zero "
                   "threshold would promote every page on first touch");
        if (cfg.tiering.heatEpochTicks == 0)
            reject("tiering.heatEpochTicks must be >= 1");
        if (cfg.tiering.engine.numSlots == 0)
            reject("tiering.engine.numSlots must be >= 1");
        if (cfg.tiering.engine.maxReadsInFlight == 0)
            reject("tiering.engine.maxReadsInFlight must be >= 1");
        // Tiering only makes sense when the far tier is slower than
        // the near tier: compare idle read latencies (ACT + CAS + one
        // burst, in CPU ticks) with the far link on top.
        auto idle_read = [](const DramTiming &t) {
            return static_cast<Tick>(t.tRCD + t.tCL + t.burstCycles) *
                   t.clkRatio;
        };
        const Tick near_lat = idle_read(cfg.hbm);
        const Tick far_lat =
            idle_read(cfg.ddr) + cfg.tiering.farLinkTicks;
        if (far_lat < near_lat)
            reject(detail::concat(
                "tiering far tier is faster than the near tier (",
                far_lat, " < ", near_lat,
                " ticks idle read); raise tiering.farLinkTicks or "
                "pick a slower far-tier timing"));
    };
    entry.requiredOnPackageFrames = [](const SystemConfig &cfg) {
        return std::max<std::uint64_t>(cfg.dcFrames,
                                       cfg.tiering.nearFrames);
    };
    entry.extraResults = {
        {"promotions",
         [](const SystemResults &r) {
             return static_cast<double>(r.promotions);
         }},
        {"demotions",
         [](const SystemResults &r) {
             return static_cast<double>(r.demotions);
         }},
        {"migration_aborts",
         [](const SystemResults &r) {
             return static_cast<double>(r.migrationAborts);
         }},
        {"near_read_p50",
         [](const SystemResults &r) { return r.nearReadP50; }},
        {"near_read_p99",
         [](const SystemResults &r) { return r.nearReadP99; }},
        {"far_read_p50",
         [](const SystemResults &r) { return r.farReadP50; }},
        {"far_read_p99",
         [](const SystemResults &r) { return r.farReadP99; }},
    };
    reg.add(std::move(entry));
}

} // namespace nomad
