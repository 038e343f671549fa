#include "tid_scheme.hh"

#include "dramcache/scheme_registry.hh"
#include "system/system.hh"

namespace nomad
{

namespace
{

LineCacheParams
lineParamsOf(const TidParams &p)
{
    LineCacheParams lp;
    lp.capacityBytes = p.capacityBytes;
    lp.lineBytes = p.lineBytes;
    lp.assoc = p.assoc;
    lp.mshrs = p.mshrs;
    lp.targetsPerMshr = p.targetsPerMshr;
    lp.maxReadsInFlight = p.maxReadsInFlight;
    lp.maxWritebackJobs = p.maxWritebackJobs;
    lp.controllerQueueDepth = p.controllerQueueDepth;
    return lp;
}

/** The parameters the registry builds TiD with from @p cfg. */
TidParams
paramsFor(const SystemConfig &cfg)
{
    TidParams p = cfg.tid;
    p.capacityBytes = cfg.dcFrames * PageBytes;
    return p;
}

} // namespace

TidScheme::TidScheme(Simulation &sim, const std::string &name,
                     const TidParams &params, DramDevice &off_package,
                     DramDevice &on_package, PageTable &page_table)
    : LineCacheScheme(sim, name, lineParamsOf(params), off_package,
                      on_package, page_table),
      tagReads(name + ".tagReads", "metadata read bursts"),
      tagWrites(name + ".tagWrites", "metadata write bursts"),
      params_(params)
{
    auto &reg = sim.statistics();
    reg.add(&tagReads);
    reg.add(&tagWrites);
}

void
TidScheme::issueMetadata(std::uint64_t set)
{
    // Tags live in the same row as the set's data, so the bursts are
    // row-buffer friendly. Fire-and-forget: with the ideal way
    // predictor the data access proceeds in parallel; the cost is
    // on-package bandwidth, which is exactly what Fig 1a illustrates.
    // Dropped if full: a bandwidth tax, not a dependency.
    ++tagReads;
    auto rd = makeRequest(hbmAddrOf(set, 0), false, Category::Metadata,
                          MemSpace::OnPackage, curTick());
    (void)onPackage_->tryAccess(rd, nullptr);

    // The LRU/dirty/tag-install update.
    if (params_.metadataWriteProb < 1.0 &&
        !metaRng_.chance(params_.metadataWriteProb)) {
        return;
    }
    ++tagWrites;
    auto wr = makeRequest(hbmAddrOf(set, 0), true, Category::Metadata,
                          MemSpace::OnPackage, curTick());
    (void)onPackage_->tryAccess(wr, nullptr);
}

void
TidScheme::launchFetch(std::size_t slot)
{
    // The probe that discovered the miss, and the tag install.
    issueMetadata(mshrs_[slot].set);
    issueFetch(slot);
}

void
TidScheme::onHitAccess(Addr line_addr)
{
    issueMetadata(setOf(line_addr));
}

void
registerTidScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Tid;
    entry.name = schemeKindName(SchemeKind::Tid);
    entry.description =
        "Unison-style HW cache with tags in on-package DRAM";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        return std::make_unique<TidScheme>(ctx.sim, "tid",
                                           paramsFor(ctx.config),
                                           ctx.offPackage,
                                           ctx.onPackage,
                                           ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        validateLineCache("tid", lineParamsOf(paramsFor(cfg)));
    };
    reg.add(std::move(entry));
}

} // namespace nomad
