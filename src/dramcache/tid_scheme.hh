/**
 * @file
 * TiD: the HW-based tags-in-DRAM comparison scheme (Section IV-A).
 *
 * Models the tag-management mechanism of Unison Cache: a set-associative
 * DRAM cache with large (1KB) lines, tags stored in on-package DRAM
 * rows next to the data, and an idealised way predictor. Every DC
 * access spends an extra on-package burst reading the tag (issued in
 * parallel with the data, so it costs bandwidth rather than latency)
 * and another updating metadata (LRU/dirty/tag install). That
 * metadata traffic is TiD's whole policy; the controller (MSHRs,
 * critical-block-first line fills, dirty-victim writeback) is the
 * line-cache controller it shares with Alloy and TDRAM.
 */

#ifndef NOMAD_DRAMCACHE_TID_SCHEME_HH
#define NOMAD_DRAMCACHE_TID_SCHEME_HH

#include "dramcache/line_cache_scheme.hh"
#include "sim/rng.hh"

namespace nomad
{

/** TiD construction parameters. */
struct TidParams
{
    std::uint64_t capacityBytes = 64ULL * 1024 * 1024;
    std::uint32_t lineBytes = 1024;
    std::uint32_t assoc = 4;
    std::uint32_t mshrs = 32;
    /** One per block of the line plus slack for repeat accesses. */
    std::uint32_t targetsPerMshr = 24;
    std::uint32_t maxReadsInFlight = 8; ///< Per in-flight line fill.
    std::uint32_t maxWritebackJobs = 64;
    /** Metadata update bursts per DC access (LRU/dirty/tag install). */
    double metadataWriteProb = 1.0;
    /** DC controller request queue (absorbs transient backpressure). */
    std::uint32_t controllerQueueDepth = 64;
};

/** Unison-style HW-based DRAM cache. */
class TidScheme : public LineCacheScheme
{
  public:
    TidScheme(Simulation &sim, const std::string &name,
              const TidParams &params, DramDevice &off_package,
              DramDevice &on_package, PageTable &page_table);

    SchemeKind kind() const override { return SchemeKind::Tid; }

    // Statistics --------------------------------------------------------
    stats::Scalar tagReads;  ///< Metadata read bursts.
    stats::Scalar tagWrites; ///< Metadata write bursts.

  protected:
    void launchFetch(std::size_t slot) override;
    void onHitAccess(Addr line_addr) override;

  private:
    void issueMetadata(std::uint64_t set);

    TidParams params_;
    Rng metaRng_{0x7161d};
};

} // namespace nomad

#endif // NOMAD_DRAMCACHE_TID_SCHEME_HH
