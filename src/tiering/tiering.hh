/**
 * @file
 * CXL-style memory tiering: shared parameters and the far-tier link.
 *
 * The tiering subsystem (docs/TIERING.md) models a fast near tier (the
 * on-package device) in front of a configurable far tier: plain DDR,
 * a CXL expander a few hundred nanoseconds away, or a remote pool
 * microseconds away. The far tier is the same DDR device the schemes
 * use; FarTierLink interposes the extra round-trip latency at a single
 * chokepoint so demand traffic and migration traffic both pay it.
 *
 * Unlike the DRAM-cache schemes, tiering is *non-exclusive* (PAPERS.md:
 * "Nomad: Non-Exclusive Memory Tiering via Transactional Page
 * Migration"): a promoted page keeps its shadow copy in the far tier,
 * so demoting a clean page is a metadata-only PTE repoint. Migrations
 * run through a transactional copy engine (migration_engine.hh) built
 * on the shared CopyTransaction core; a write to an in-flight page
 * aborts the copy (generation bump + full rewind) instead of stalling
 * the writer.
 */

#ifndef NOMAD_TIERING_TIERING_HH
#define NOMAD_TIERING_TIERING_HH

#include <cstdint>

#include "dram/device.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"

namespace nomad
{

/** Transactional migration engine parameters. */
struct MigrationEngineParams
{
    /** Concurrent migration slots (the tiering analogue of PCSHRs). */
    std::uint32_t numSlots = 8;
    /** Outstanding source-side reads per migration slot. */
    std::uint32_t maxReadsInFlight = 8;
    /**
     * Write-triggered aborts tolerated per migration before the copy
     * is cancelled outright: each abort rewinds the transaction and
     * refetches from scratch, so a write-hot page would otherwise
     * churn the engine forever.
     */
    std::uint32_t maxAbortRetries = 3;
    /**
     * Abort-and-refetch a migration with no forward progress for this
     * many ticks (lost reads under --fault-spec); 0 disables. Same
     * recovery as the NOMAD back-end's copy timeout.
     */
    Tick copyTimeoutTicks = 0;
};

/** Tiering frontend + policy parameters. */
struct TieringParams
{
    /** Near-tier capacity in frames; 0 uses the system's dcFrames. */
    std::uint64_t nearFrames = 0;
    /**
     * Extra round-trip ticks a far-tier read pays on top of the DDR
     * device's own timing: 0 models plain DDR, ~1000 a CXL expander
     * (~300ns at 3.2GHz), ~6400 a remote pool (~2us).
     */
    Tick farLinkTicks = 0;
    /**
     * Promote a page once its frequency counter reaches this value.
     * Must be nonzero (SystemConfig::validate()): a zero threshold
     * would promote on first touch and thrash the near tier.
     */
    std::uint32_t promoteThreshold = 8;
    /** Frequency-counter epoch; heat decays once per elapsed epoch. */
    Tick heatEpochTicks = 200'000;
    /** Right-shift applied to a page's heat per elapsed epoch. */
    std::uint32_t heatDecayShift = 1;
    /**
     * Wake the demotion daemon when free near frames drop below this;
     * 0 derives max(8, nearFrames/8).
     */
    std::uint64_t demotionWatermark = 0;
    /** Frames the daemon tries to reclaim per pass. */
    std::uint32_t demotionBatch = 32;
    /** Daemon wakeup latency (context switch), in ticks. */
    Tick daemonWakeLatency = 200;
    /** Metadata cost to reclaim one frame (PTE repoint, bookkeeping). */
    Tick demotePerFrameCycles = 40;
    /** Skip TLB-resident victims instead of shooting them down. */
    bool tlbShootdownAvoidance = true;
    /** Cost of one TLB shootdown when avoidance is disabled. */
    Tick shootdownCycles = 2000;
    MigrationEngineParams engine;
};

/**
 * The far-tier interconnect: forwards requests to the DDR device and
 * adds the configured round-trip latency to read completions. Writes
 * are posted (acceptance is what matters to the sender), so only their
 * queue occupancy is modelled by the device itself.
 */
class FarTierLink : public SimObject, public MemPort
{
  public:
    FarTierLink(Simulation &sim, const std::string &name,
                DramDevice &far, Tick link_ticks)
        : SimObject(sim, name), far_(far), linkTicks_(link_ticks)
    {}

    Tick linkTicks() const { return linkTicks_; }

    bool
    tryAccess(const MemRequestPtr &req, PortWaiter *waiter) override
    {
        if (linkTicks_ == 0 || req->isWrite || !req->onComplete)
            return far_.tryAccess(req, waiter);
        // Complete the caller's request linkTicks after the device
        // answers; the inner request carries no latency tracking, so
        // the caller's demand-read stats include the link.
        auto outer = req;
        auto inner = makeRequest(
            req->addr, false, req->category, req->space, curTick(),
            [this, outer](Tick) {
                schedule(linkTicks_, [outer, this]() {
                    outer->complete(curTick());
                });
            },
            req->coreId);
        return far_.tryAccess(inner, waiter);
    }

  private:
    DramDevice &far_;
    Tick linkTicks_;
};

} // namespace nomad

#endif // NOMAD_TIERING_TIERING_HH
