/**
 * @file
 * The tiering scheme: adapts the tiering subsystem to the scheme
 * interface so the existing core/TLB/SRAM plumbing drives it
 * unchanged.
 *
 * Address spaces map onto tiers: OnPackage is the near tier (promoted
 * pages, addressed by near frame), OffPackage is the far tier behind
 * the FarTierLink. Demand traffic never blocks on migration state —
 * far accesses proceed against the shadow copy while a promotion is
 * in flight, and a demand write simply aborts it.
 *
 * Per-tier demand-read latency is kept as full distributions so the
 * bench can report p50/p99 per tier (the production tail-latency view
 * the mean hides).
 */

#ifndef NOMAD_TIERING_TIERING_SCHEME_HH
#define NOMAD_TIERING_TIERING_SCHEME_HH

#include <memory>

#include "dramcache/scheme.hh"
#include "tiering/migration_engine.hh"
#include "tiering/tiering.hh"
#include "tiering/tiering_frontend.hh"

namespace nomad
{

/** CXL-style non-exclusive tiering (SchemeKind::Tiering). */
class TieringScheme : public DramCacheScheme
{
  public:
    TieringScheme(Simulation &sim, const std::string &name,
                  const TieringParams &params, DramDevice &off_package,
                  DramDevice &on_package, PageTable &page_table);

    SchemeKind kind() const override { return SchemeKind::Tiering; }

    void
    notifyStore(Pte *pte) override
    {
        pte->dirty = true;
        frontend_->noteStore(pte);
    }

    void
    tlbInserted(int core, PageNum vpn, const Pte &pte) override
    {
        (void)vpn;
        frontend_->tlbInserted(core, pte);
    }

    void
    tlbEvicted(int core, PageNum vpn, const Pte &pte) override
    {
        (void)vpn;
        frontend_->tlbEvicted(core, pte);
    }

    Addr
    memAddrFor(const Pte &pte, Addr vaddr,
               MemSpace &space_out) const override
    {
        space_out = pte.cached ? MemSpace::OnPackage
                               : MemSpace::OffPackage;
        return (pte.frame << PageShift) | pageOffset(vaddr);
    }

    bool tryAccess(const MemRequestPtr &req,
                   PortWaiter *waiter) override;

    bool quiesced() const override { return frontend_->quiesced(); }
    void checkDrained() const override { frontend_->checkDrained(); }
    void snapshot(harden::Snapshot &snap) const override
    {
        frontend_->snapshot(snap);
    }

    void
    setFlushHook(FlushHook hook) override
    {
        frontend_->setFlushHook(hook);
        DramCacheScheme::setFlushHook(std::move(hook));
    }

    void
    setShootdownHook(ShootdownHook hook) override
    {
        frontend_->setShootdownHook(std::move(hook));
    }

    void collectStats(SystemResults &r) const override;
    void samplerProbes(StatSampler &sampler) override;

    TieringFrontEnd &frontend() { return *frontend_; }
    const TieringFrontEnd &frontend() const { return *frontend_; }
    MigrationEngine &engine() { return *engine_; }
    const MigrationEngine &engine() const { return *engine_; }
    FarTierLink &farLink() { return *farLink_; }

    // Statistics --------------------------------------------------------
    /** Demand-read access time per tier (p50/p99 via percentile()). */
    stats::Distribution nearReadLatency;
    stats::Distribution farReadLatency;

  private:
    void trackTier(const MemRequestPtr &req, stats::Distribution &dist);

    TieringParams params_;
    std::unique_ptr<FarTierLink> farLink_;
    std::unique_ptr<MigrationEngine> engine_;
    std::unique_ptr<TieringFrontEnd> frontend_;
};

} // namespace nomad

#endif // NOMAD_TIERING_TIERING_SCHEME_HH
