/**
 * @file
 * MemBus implementation.
 */

#include "mem_bus.hh"

namespace genesys::mem
{

void
MemBus::request(Agent agent, std::uint64_t bytes,
                std::coroutine_handle<> cont)
{
    const Request r{agent, bytes, cont};
    if (busy_) {
        waiting_.push_back(r);
        return;
    }
    busy_ = true;
    active_ = r;
    start();
}

void
MemBus::start()
{
    const Tick busy = params_.requestOverhead +
                      transferTicks(active_.bytes, params_.bytesPerSec);
    eq_.scheduleIn(
        busy, [](void *bus) { static_cast<MemBus *>(bus)->finish(); },
        this);
}

void
MemBus::finish()
{
    bytes_[static_cast<std::size_t>(active_.agent)] += active_.bytes;
    const std::coroutine_handle<> done = active_.cont;
    if (waiting_.empty()) {
        busy_ = false;
    } else {
        // The bus passes straight to the oldest waiter, which starts
        // from an event of its own (a permit hand-off, not a direct
        // call), before the finished transfer's owner resumes.
        active_ = waiting_.front();
        waiting_.pop_front();
        eq_.scheduleIn(
            0, [](void *bus) { static_cast<MemBus *>(bus)->start(); },
            this);
    }
    done.resume();
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
