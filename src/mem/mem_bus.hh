/**
 * @file
 * Shared memory-controller bandwidth model.
 *
 * Models the dual-channel DDR4 controllers shared between the CPU and
 * the integrated GPU (Table III). Transfers from all agents serialize
 * through one FIFO server of fixed aggregate bandwidth; per-agent byte
 * counters let experiments compute achieved throughput (Figure 9 plots
 * CPU throughput as GPU polling traffic grows).
 *
 * The server is a single queue with one permit. A coroutine awaits
 * transfer(); a device model that already holds a suspended coroutine
 * (the GPU's L2-miss path) hands it over with request(). Both join the
 * same queue, so every grant follows arrival order across agents.
 */

#ifndef GENESYS_MEM_MEM_BUS_HH
#define GENESYS_MEM_MEM_BUS_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string_view>

#include "sim/event_queue.hh"
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
        : eq_(eq), params_(params)
    {}

    /** Awaiter for one transfer: queues the awaiting coroutine. */
    class Transfer
    {
      public:
        Transfer(MemBus &bus, Agent agent, std::uint64_t bytes)
            : bus_(bus), agent_(agent), bytes_(bytes)
        {}
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            bus_.request(agent_, bytes_, h);
        }
        void await_resume() const noexcept {}

      private:
        MemBus &bus_;
        Agent agent_;
        std::uint64_t bytes_;
    };

    /**
     * Move @p bytes across the bus on behalf of @p agent. Suspends the
     * caller for queueing plus transfer time.
     */
    Transfer transfer(Agent agent, std::uint64_t bytes)
    {
        return Transfer(*this, agent, bytes);
    }

    /**
     * Queue a transfer of @p bytes for @p agent and resume @p cont,
     * from the event that ends it, once the bytes have moved.
     */
    void request(Agent agent, std::uint64_t bytes,
                 std::coroutine_handle<> cont);

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
    struct Request
    {
        Agent agent;
        std::uint64_t bytes;
        std::coroutine_handle<> cont;
    };

    /** Occupy the bus for active_'s transfer time. */
    void start();
    /** End active_: count its bytes, pass the bus on, resume it. */
    void finish();

    sim::EventQueue &eq_;
    MemBusParams params_;
    /// The transfer holding the bus, valid while busy_.
    Request active_{};
    bool busy_ = false;
    std::deque<Request> waiting_;
    /// Bytes moved, indexed by Agent.
    std::array<std::uint64_t, 2> bytes_{};
};

} // namespace genesys::mem

#endif // GENESYS_MEM_MEM_BUS_HH
