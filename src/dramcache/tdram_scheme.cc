#include "tdram_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "system/system.hh"

namespace nomad
{

namespace
{

LineCacheParams
lineParamsOf(const TdramParams &p)
{
    LineCacheParams lp;
    lp.capacityBytes = p.capacityBytes;
    lp.lineBytes = BlockBytes;
    lp.assoc = p.assoc;
    lp.mshrs = p.mshrs;
    lp.targetsPerMshr = p.targetsPerMshr;
    lp.maxReadsInFlight = 1;
    lp.maxWritebackJobs = p.maxWritebackJobs;
    lp.controllerQueueDepth = p.controllerQueueDepth;
    return lp;
}

/** The parameters the registry builds TDRAM with from @p cfg. */
TdramParams
paramsFor(const SystemConfig &cfg)
{
    TdramParams p = cfg.tdram;
    if (p.capacityBytes == 0)
        p.capacityBytes = cfg.dcFrames * PageBytes;
    return p;
}

} // namespace

TdramScheme::TdramScheme(Simulation &sim, const std::string &name,
                         const TdramParams &params,
                         DramDevice &off_package,
                         DramDevice &on_package,
                         PageTable &page_table)
    : LineCacheScheme(sim, name, lineParamsOf(params), off_package,
                      on_package, page_table),
      earlyMisses(name + ".earlyMisses",
                  "misses settled by the on-die tag check"),
      params_(params)
{
    sim.statistics().add(&earlyMisses);
}

void
TdramScheme::launchFetch(std::size_t slot)
{
    // Early miss detection: the on-die tag comparator answers after a
    // fixed short delay without occupying the data bus; the fetch
    // launches straight from there.
    ++earlyMisses;
    Mshr &m = mshrs_[slot];
    const std::uint64_t gen = m.generation;
    if (params_.tagCheckTicks == 0) {
        issueFetch(slot);
        return;
    }
    schedule(params_.tagCheckTicks, [this, slot, gen]() {
        touch();
        Mshr &mm = mshrs_[slot];
        if (mm.valid && mm.generation == gen)
            issueFetch(slot);
    });
}

void
TdramScheme::collectStats(SystemResults &r) const
{
    LineCacheScheme::collectStats(r);
    r.earlyMisses = static_cast<std::uint64_t>(earlyMisses.value());
}

void
registerTdramScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Tdram;
    entry.name = schemeKindName(SchemeKind::Tdram);
    entry.description =
        "tag-enhanced line cache with in-access tag check and early "
        "miss detection";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        return std::make_unique<TdramScheme>(ctx.sim, "tdram",
                                             paramsFor(ctx.config),
                                             ctx.offPackage,
                                             ctx.onPackage,
                                             ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        validateLineCache("tdram", lineParamsOf(paramsFor(cfg)));
    };
    entry.requiredOnPackageFrames = [](const SystemConfig &cfg) {
        const std::uint64_t frames =
            (cfg.tdram.capacityBytes + PageBytes - 1) / PageBytes;
        return std::max<std::uint64_t>(cfg.dcFrames, frames);
    };
    entry.extraResults = {
        {"early_misses",
         [](const SystemResults &r) {
             return static_cast<double>(r.earlyMisses);
         }},
    };
    reg.add(std::move(entry));
}

} // namespace nomad
