#include "alloy_scheme.hh"

#include <algorithm>

#include "dramcache/scheme_registry.hh"
#include "dramcache/scheme_results.hh"
#include "system/system.hh"

namespace nomad
{

namespace
{

LineCacheParams
lineParamsOf(const AlloyParams &p)
{
    LineCacheParams lp;
    lp.capacityBytes = p.capacityBytes;
    lp.lineBytes = BlockBytes;
    lp.assoc = 1; // Direct-mapped: the TAD burst checks one location.
    lp.mshrs = p.mshrs;
    lp.targetsPerMshr = p.targetsPerMshr;
    lp.maxReadsInFlight = 1;
    lp.maxWritebackJobs = p.maxWritebackJobs;
    lp.controllerQueueDepth = p.controllerQueueDepth;
    return lp;
}

/** The parameters the registry builds Alloy with from @p cfg. */
AlloyParams
paramsFor(const SystemConfig &cfg)
{
    AlloyParams p = cfg.alloy;
    if (p.capacityBytes == 0)
        p.capacityBytes = cfg.dcFrames * PageBytes;
    return p;
}

} // namespace

AlloyScheme::AlloyScheme(Simulation &sim, const std::string &name,
                         const AlloyParams &params,
                         DramDevice &off_package,
                         DramDevice &on_package,
                         PageTable &page_table)
    : LineCacheScheme(sim, name, lineParamsOf(params), off_package,
                      on_package, page_table),
      missPredictions(name + ".missPredictions",
                      "accesses the predictor sent to memory early"),
      spuriousFetches(name + ".spuriousFetches",
                      "predicted-miss hits (wasted off-package reads)"),
      tagBursts(name + ".tagBursts",
                "TAD tag-overhead metadata bursts"),
      params_(params)
{
    fatal_if(params.predictorBits > 16,
             name, ": predictor counter wider than 16 bits");
    fatal_if(params.tagBytesPerAccess > BlockBytes,
             name, ": tag bytes per access exceed the burst size");
    if (params.predictorBits == 0) {
        // Pinned always-miss: counter stays 0, threshold above it.
        predictorMax_ = 0;
        predictorMid_ = 1;
    } else {
        predictorMax_ = (1U << params.predictorBits) - 1;
        predictorMid_ = 1U << (params.predictorBits - 1);
    }

    auto &reg = sim.statistics();
    reg.add(&missPredictions);
    reg.add(&spuriousFetches);
    reg.add(&tagBursts);
}

void
AlloyScheme::noteTad()
{
    if (params_.tagBytesPerAccess == 0)
        return;
    // Tag bits ride every TAD burst; charge one whole metadata burst
    // once enough tag bytes accumulated to fill it.
    if (++tadsSinceBurst_ < BlockBytes / params_.tagBytesPerAccess)
        return;
    tadsSinceBurst_ = 0;
    ++tagBursts;
    auto req = makeRequest(0, false, Category::Metadata,
                           MemSpace::OnPackage, curTick());
    // Dropped if full: a bandwidth tax, not a dependency.
    (void)onPackage_->tryAccess(req, nullptr);
}

void
AlloyScheme::issueProbe(std::size_t slot)
{
    // Mispredicted hit: the fetch serializes behind the on-package TAD
    // access that discovers the miss (Alloy's predictor penalty).
    Mshr &m = mshrs_[slot];
    const std::uint64_t gen = m.generation;
    auto probe = makeRequest(hbmAddrOf(m.set, m.way), false,
                             Category::Demand, MemSpace::OnPackage,
                             curTick(), [this, slot, gen](Tick) {
                                 touch();
                                 Mshr &mm = mshrs_[slot];
                                 if (mm.valid && mm.generation == gen)
                                     issueFetch(slot);
                             });
    setBlocked(m, !onPackage_->tryAccess(probe, pump_.waiter()));
}

void
AlloyScheme::launchFetch(std::size_t slot)
{
    noteTad(); // The TAD access runs regardless of the prediction.
    if (predictMiss()) {
        ++missPredictions;
        issueFetch(slot);
    } else {
        issueProbe(slot);
    }
}

void
AlloyScheme::retryLaunch(std::size_t slot)
{
    issueProbe(slot);
}

void
AlloyScheme::onHitAccess(Addr line_addr)
{
    noteTad();
    if (predictMiss()) {
        // The predictor already launched this line off-package in a
        // real Alloy; charge the wasted read's bandwidth.
        ++missPredictions;
        ++spuriousFetches;
        auto req = makeRequest(line_addr, false, Category::Demand,
                               MemSpace::OffPackage, curTick());
        (void)offPackage_.tryAccess(req, nullptr);
    }
}

void
AlloyScheme::recordOutcome(bool hit)
{
    if (hit) {
        if (predictor_ < predictorMax_)
            ++predictor_;
    } else {
        if (predictor_ > 0)
            --predictor_;
    }
}

void
AlloyScheme::collectStats(SystemResults &r) const
{
    LineCacheScheme::collectStats(r);
    r.missPredictions =
        static_cast<std::uint64_t>(missPredictions.value());
    r.spuriousFetches =
        static_cast<std::uint64_t>(spuriousFetches.value());
}

void
registerAlloyScheme(SchemeRegistry &reg)
{
    SchemeEntry entry;
    entry.kind = SchemeKind::Alloy;
    entry.name = schemeKindName(SchemeKind::Alloy);
    entry.description =
        "direct-mapped line cache with unified TAD access and a "
        "miss predictor";
    entry.factory = [](const SchemeBuildContext &ctx)
        -> std::unique_ptr<DramCacheScheme> {
        return std::make_unique<AlloyScheme>(ctx.sim, "alloy",
                                             paramsFor(ctx.config),
                                             ctx.offPackage,
                                             ctx.onPackage,
                                             ctx.pageTable);
    };
    entry.validate = [](const SystemConfig &cfg) {
        auto reject = [](const std::string &msg) {
            throw harden::SimError(harden::ErrorKind::ConfigError,
                                   "bad config: " + msg);
        };
        validateLineCache("alloy", lineParamsOf(paramsFor(cfg)));
        if (cfg.alloy.predictorBits > 16)
            reject("alloy.predictorBits must be <= 16");
        if (cfg.alloy.tagBytesPerAccess > BlockBytes)
            reject("alloy.tagBytesPerAccess must not exceed the 64B "
                   "block size");
    };
    entry.requiredOnPackageFrames = [](const SystemConfig &cfg) {
        const std::uint64_t frames =
            (cfg.alloy.capacityBytes + PageBytes - 1) / PageBytes;
        return std::max<std::uint64_t>(cfg.dcFrames, frames);
    };
    entry.extraResults = {
        {"miss_predictions",
         [](const SystemResults &r) {
             return static_cast<double>(r.missPredictions);
         }},
        {"spurious_fetches",
         [](const SystemResults &r) {
             return static_cast<double>(r.spuriousFetches);
         }},
    };
    reg.add(std::move(entry));
}

} // namespace nomad
