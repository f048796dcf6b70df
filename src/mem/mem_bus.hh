/**
 * @file
 * Shared memory-controller bandwidth model.
 *
 * Models the dual-channel DDR4 controllers shared between the CPU and
 * the integrated GPU (Table III). Transfers from all agents serialize
 * through a FIFO server of fixed aggregate bandwidth; per-agent byte
 * counters let experiments compute achieved throughput (Figure 9 plots
 * CPU throughput as GPU polling traffic grows).
 */

#ifndef GENESYS_MEM_MEM_BUS_HH
#define GENESYS_MEM_MEM_BUS_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::mem
{

/** The agents that share the memory controllers. */
enum class Agent
{
    Cpu,
    Gpu,
};

struct MemBusParams
{
    /// Aggregate sustainable bandwidth in bytes/second.
    /// Dual-channel DDR4-1066 peak is ~17 GB/s; we model ~70% of peak
    /// as sustainable under mixed CPU+GPU traffic.
    double bytesPerSec = 12.0e9;
    /// Fixed per-request controller overhead (closed-page access).
    Tick requestOverhead = 40;
};

class MemBus
{
  public:
    MemBus(sim::EventQueue &eq, const MemBusParams &params)
        : eq_(eq), params_(params), gate_(eq, 1)
    {}

    /**
     * Move @p bytes across the bus on behalf of @p agent. Suspends the
     * caller for queueing plus transfer time.
     */
    sim::Task<> transfer(Agent agent, std::uint64_t bytes);

    /** Total bytes moved so far by the agent named @p name ("cpu" or
     *  "gpu"); 0 for any other name. */
    std::uint64_t bytesMoved(std::string_view name) const;

    /** Achieved throughput of an agent over [from, to] in bytes/sec. */
    double throughput(Agent agent, Tick from, Tick to) const;

    void
    resetStats()
    {
        bytes_.fill(0);
    }

  private:
    sim::EventQueue &eq_;
    MemBusParams params_;
    sim::Semaphore gate_;
    /// Bytes moved, indexed by Agent.
    std::array<std::uint64_t, 2> bytes_{};
};

} // namespace genesys::mem

#endif // GENESYS_MEM_MEM_BUS_HH
