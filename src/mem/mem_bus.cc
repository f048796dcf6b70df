/**
 * @file
 * MemBus implementation.
 */

#include "mem_bus.hh"

namespace genesys::mem
{

sim::Task<>
MemBus::transfer(Agent agent, std::uint64_t bytes)
{
    co_await gate_.acquire();
    const Tick busy =
        params_.requestOverhead + transferTicks(bytes, params_.bytesPerSec);
    co_await sim::Delay(eq_, busy);
    bytes_[static_cast<std::size_t>(agent)] += bytes;
    gate_.release();
}

std::uint64_t
MemBus::bytesMoved(std::string_view name) const
{
    if (name == "cpu")
        return bytes_[static_cast<std::size_t>(Agent::Cpu)];
    if (name == "gpu")
        return bytes_[static_cast<std::size_t>(Agent::Gpu)];
    return 0;
}

double
MemBus::throughput(Agent agent, Tick from, Tick to) const
{
    if (to <= from)
        return 0.0;
    const double secs = ticks::toSec(to - from);
    return static_cast<double>(bytes_[static_cast<std::size_t>(agent)]) /
           secs;
}

} // namespace genesys::mem
