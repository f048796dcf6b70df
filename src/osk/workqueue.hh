/**
 * @file
 * CPU core pool and kernel work-queue.
 *
 * GENESYS services GPU system calls in OS worker threads scheduled on
 * the host CPU (Section VI): the interrupt handler enqueues a kernel
 * task; "at an expedient future point in time an OS worker thread
 * executes this task". CpuCluster models the four FX-9800P cores as a
 * pool that any simulated computation must occupy while it runs;
 * WorkQueue models Linux's system workqueue with dispatch latency and
 * a bounded worker count.
 *
 * Busy-core accounting feeds the CPU-utilization traces of Figure 14.
 */

#ifndef GENESYS_OSK_WORKQUEUE_HH
#define GENESYS_OSK_WORKQUEUE_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "osk/params.hh"
#include "sim/sim.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::osk
{

class CpuCluster
{
  public:
    CpuCluster(sim::Sim &sim, std::uint32_t cores)
        : sim_(sim), cores_(cores), gate_(sim.events(), cores)
    {}

    /** Occupy one core for the duration of @p work. */
    sim::Task<> run(sim::Task<> work);

    /** Occupy one core for a fixed compute time. */
    sim::Task<> compute(Tick duration);

    /** Awaiter for one core: the acquire is recorded on resume. */
    class CoreAcquire
    {
      public:
        explicit CoreAcquire(CpuCluster &c)
            : cluster_(c), gate_(c.gate_.acquire())
        {}
        bool await_ready() { return gate_.await_ready(); }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            gate_.await_suspend(h);
        }
        void await_resume() { cluster_.recordAcquire(); }

      private:
        CpuCluster &cluster_;
        sim::Semaphore::Acquire gate_;
    };

    /**
     * Manual occupancy for run-to-completion service tasks that must
     * release the core around truly-blocking sections (e.g. recvfrom
     * with an empty queue). Pair every acquireCore with releaseCore.
     */
    CoreAcquire acquireCore() { return CoreAcquire(*this); }
    void releaseCore();

    std::uint32_t cores() const { return cores_; }

    /**
     * Average fraction of cores busy over [from, to], integrating the
     * recorded busy-count step function. In [0, 1].
     */
    double utilization(Tick from, Tick to) const;

  private:
    void recordAcquire();
    void recordRelease();

    sim::Sim &sim_;
    std::uint32_t cores_;
    sim::Semaphore gate_;
    std::uint32_t busyNow_ = 0;
    /// (tick, busy count after the change); monotone in tick.
    std::vector<std::pair<Tick, std::uint32_t>> steps_;
};

/**
 * Deferred-work queue with per-worker dispatch: every worker owns a
 * bounded task queue; enqueueOn() steers work to a preferred worker
 * (callers encode their steering policy — e.g. the GENESYS shard ->
 * worker affinity — by picking the target), and idle workers steal
 * from the lowest-indexed backlogged queue so no queue strands work.
 * The active worker count is a runtime knob (setMaxWorkers), taking
 * effect at the next dispatch; each execution occupies a CPU core.
 */
class WorkQueue
{
  public:
    /**
     * A queued task, instantiated by the worker loop that picks it up.
     * The factory receives the worker's index in [0, maxWorkers) — the
     * identity of the OS worker thread executing the task, which e.g.
     * the gsan happens-before checker uses to attribute CPU-side slot
     * accesses.
     */
    using TaskFactory = std::function<sim::Task<>(std::uint32_t worker)>;

    WorkQueue(sim::Sim &sim, CpuCluster &cpus, const OskParams &params,
              std::uint32_t max_workers);

    /**
     * Queue work on worker 0's queue (the "global" queue; with steal
     * this behaves exactly like the classic single-deque workqueue).
     * Returns after the enqueue cost (bookkeeping only).
     */
    void enqueue(TaskFactory factory);

    /**
     * Queue work preferring @p worker's queue (clamped into the active
     * set). If that queue is at queueBound(), the task spills to the
     * least-loaded active queue instead.
     */
    void enqueueOn(std::uint32_t worker, TaskFactory factory);

    /**
     * Shrink or re-grow the active worker pool at runtime, in
     * [1, workerCap()]. Shrinking retires surplus worker loops at
     * their next wakeup (in-flight tasks finish); growing respawns
     * them. Takes effect on the next dispatch.
     */
    void setMaxWorkers(std::uint32_t n);
    std::uint32_t maxWorkers() const { return activeWorkers_; }
    /** Construction-time bound on the worker pool. */
    std::uint32_t workerCap() const
    {
        return static_cast<std::uint32_t>(queues_.size());
    }

    /** Per-worker queue capacity before enqueueOn() spills. */
    void setQueueBound(std::uint32_t n);
    std::uint32_t queueBound() const { return queueBound_; }

    std::uint64_t executedTasks() const { return executed_; }
    std::uint64_t executedBy(std::uint32_t worker) const
    {
        return executedBy_[worker];
    }
    std::size_t queuedNow() const { return totalQueued_; }
    std::size_t queuedOn(std::uint32_t worker) const
    {
        return queues_[worker].size();
    }
    /** Tasks an idle worker took from another worker's queue. */
    std::uint64_t steals() const { return steals_; }
    /** Tasks redirected off a full preferred queue at enqueue. */
    std::uint64_t spills() const { return spills_; }

  private:
    sim::Task<> workerLoop(std::uint32_t worker);

    sim::Sim &sim_;
    CpuCluster &cpus_;
    const OskParams &params_;
    std::vector<std::deque<TaskFactory>> queues_;
    std::vector<bool> loopLive_;
    std::uint32_t activeWorkers_;
    std::uint32_t queueBound_ = 4096;
    std::size_t totalQueued_ = 0;
    std::unique_ptr<sim::WaitQueue> wait_;
    std::uint64_t executed_ = 0;
    std::vector<std::uint64_t> executedBy_;
    std::uint64_t steals_ = 0;
    std::uint64_t spills_ = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_WORKQUEUE_HH
