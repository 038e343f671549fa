#include "device.hh"

namespace nomad
{

DramDevice::DramDevice(Simulation &sim, const std::string &name,
                       const DramTiming &timing, MappingScheme mapping)
    : SimObject(sim, name), timing_(timing), mapping_(mapping),
      stats_(name)
{
    fatal_if(timing.channels == 0, "DRAM device needs >= 1 channel");
    fatal_if(timing.rowBytes % BlockBytes != 0,
             "row size must be a multiple of the block size");
    stats_.registerAll(sim.statistics());
    for (std::uint32_t c = 0; c < timing.channels; ++c) {
        // Channels register themselves as clocked components, in
        // channel order, so each wakes independently.
        channels_.push_back(std::make_unique<DramChannel>(
            sim, name + ".ch" + std::to_string(c), timing_, mapping_, c,
            stats_));
    }
}

bool
DramDevice::tryAccess(const MemRequestPtr &req, PortWaiter *waiter)
{
    const auto coord = decodeAddress(req->addr, timing_, mapping_);
    panic_if(coord.channel >= channels_.size(),
             "bad channel decode for addr ", req->addr);
    return channels_[coord.channel]->enqueue(req, coord, waiter);
}

} // namespace nomad
