/**
 * @file
 * A multi-channel DRAM device (one HBM stack or one DDR4 memory pool).
 *
 * The device routes requests to channels by the address-mapping scheme,
 * ticks its channels at the controller clock, and aggregates statistics.
 */

#ifndef NOMAD_DRAM_DEVICE_HH
#define NOMAD_DRAM_DEVICE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "dram/channel.hh"
#include "dram/stats.hh"
#include "mem/request.hh"
#include "sim/simulation.hh"

namespace nomad
{

/**
 * Complete DRAM device; implements the downstream MemPort.
 *
 * The device itself is not clocked: each channel registers with the
 * simulation individually (at the controller clock), so the run loop
 * wakes exactly the channels that have work instead of pumping the
 * whole device whenever any one channel is busy.
 */
class DramDevice : public SimObject, public MemPort
{
  public:
    /**
     * The default mapping keeps column bits lowest so sequential
     * streams (page copies above all) stay inside one row per bank;
     * bank-level parallelism comes from the many concurrent streams.
     */
    DramDevice(Simulation &sim, const std::string &name,
               const DramTiming &timing,
               MappingScheme mapping = MappingScheme::Co1ChBgBaCoRaRo);

    /**
     * Route @p req to its channel; false when that channel is full,
     * with @p waiter parked on the refusing channel's queue.
     */
    bool tryAccess(const MemRequestPtr &req,
                   PortWaiter *waiter) override;

    /** True when every channel's queues are drained. */
    bool
    idle() const
    {
        for (const auto &ch : channels_)
            if (!ch->idle())
                return false;
        return true;
    }

    const DramTiming &timing() const { return timing_; }
    DramStats &stats() { return stats_; }
    const DramStats &stats() const { return stats_; }
    std::uint32_t numChannels() const { return timing_.channels; }

    /** The channel an address routes to (for distributed back-ends). */
    std::uint32_t
    channelOf(Addr addr) const
    {
        return decodeAddress(addr, timing_, mapping_).channel;
    }

    DramChannel &channel(std::uint32_t idx) { return *channels_[idx]; }

    /** Queued reads across all channels (diagnostic snapshots). */
    std::size_t
    queuedReads() const
    {
        std::size_t total = 0;
        for (const auto &ch : channels_)
            total += ch->readQueueSize();
        return total;
    }

    /** Senders parked on a full channel queue (drain audit: 0). */
    std::size_t
    parkedSenders() const
    {
        std::size_t total = 0;
        for (const auto &ch : channels_)
            total += ch->parkedSenders();
        return total;
    }

    /** Queued writes across all channels (diagnostic snapshots). */
    std::size_t
    queuedWrites() const
    {
        std::size_t total = 0;
        for (const auto &ch : channels_)
            total += ch->writeQueueSize();
        return total;
    }

  private:
    DramTiming timing_;
    MappingScheme mapping_;
    DramStats stats_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace nomad

#endif // NOMAD_DRAM_DEVICE_HH
