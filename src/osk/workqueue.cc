/**
 * @file
 * CpuCluster and WorkQueue implementation.
 */

#include "workqueue.hh"

#include <algorithm>


namespace genesys::osk
{

void
CpuCluster::recordAcquire()
{
    ++busyNow_;
    steps_.emplace_back(sim_.now(), busyNow_);
}

void
CpuCluster::recordRelease()
{
    --busyNow_;
    steps_.emplace_back(sim_.now(), busyNow_);
}

sim::Task<>
CpuCluster::run(sim::Task<> work)
{
    co_await gate_.acquire();
    recordAcquire();
    try {
        co_await std::move(work);
    } catch (...) {
        recordRelease();
        gate_.release();
        throw;
    }
    recordRelease();
    gate_.release();
}

sim::Task<>
CpuCluster::compute(Tick duration)
{
    co_await gate_.acquire();
    recordAcquire();
    co_await sim_.delay(duration);
    recordRelease();
    gate_.release();
}

sim::Task<>
CpuCluster::acquireCore()
{
    co_await gate_.acquire();
    recordAcquire();
}

void
CpuCluster::releaseCore()
{
    recordRelease();
    gate_.release();
}

double
CpuCluster::utilization(Tick from, Tick to) const
{
    if (to <= from || cores_ == 0)
        return 0.0;
    // Integrate the step function of busy cores over [from, to].
    double busy_integral = 0.0;
    std::uint32_t level = 0;
    Tick prev = from;
    for (const auto &[when, count] : steps_) {
        if (when <= from) {
            level = count;
            continue;
        }
        const Tick seg_end = std::min(when, to);
        if (seg_end > prev) {
            busy_integral +=
                static_cast<double>(seg_end - prev) * level;
            prev = seg_end;
        }
        if (when >= to)
            break;
        level = count;
    }
    if (prev < to)
        busy_integral += static_cast<double>(to - prev) * level;
    return busy_integral /
           (static_cast<double>(to - from) * static_cast<double>(cores_));
}

WorkQueue::WorkQueue(sim::Sim &sim, CpuCluster &cpus,
                     const OskParams &params, std::uint32_t max_workers)
    : sim_(sim), cpus_(cpus), params_(params),
      queues_(max_workers == 0 ? 1 : max_workers),
      loopLive_(queues_.size(), true),
      activeWorkers_(static_cast<std::uint32_t>(queues_.size())),
      wait_(std::make_unique<sim::WaitQueue>(sim.events())),
      executedBy_(queues_.size(), 0)
{
    for (std::uint32_t i = 0; i < workerCap(); ++i)
        sim_.spawn(workerLoop(i));
}

void
WorkQueue::enqueue(TaskFactory factory)
{
    enqueueOn(0, std::move(factory));
}

void
WorkQueue::enqueueOn(std::uint32_t worker, TaskFactory factory)
{
    std::uint32_t target = worker % activeWorkers_;
    if (queues_[target].size() >= queueBound_) {
        // Preferred queue is full: spill to the least-loaded active
        // queue (first minimum wins, keeping the choice deterministic).
        std::uint32_t best = target;
        for (std::uint32_t w = 0; w < activeWorkers_; ++w) {
            if (queues_[w].size() < queues_[best].size())
                best = w;
        }
        if (best != target) {
            target = best;
            ++spills_;
        }
    }
    queues_[target].push_back(std::move(factory));
    ++totalQueued_;
    // workerDispatch models the latency until an idle worker notices
    // the queued task.
    wait_->notifyOne(params_.workerDispatch);
}

void
WorkQueue::setMaxWorkers(std::uint32_t n)
{
    n = std::max<std::uint32_t>(1, std::min(n, workerCap()));
    const std::uint32_t prev = activeWorkers_;
    activeWorkers_ = n;
    // Respawn loops for workers re-entering the active set. Retired
    // loops exit on their own at the next wakeup (workerLoop checks).
    for (std::uint32_t i = prev; i < n; ++i) {
        if (!loopLive_[i]) {
            loopLive_[i] = true;
            sim_.spawn(workerLoop(i));
        }
    }
}

void
WorkQueue::setQueueBound(std::uint32_t n)
{
    queueBound_ = std::max<std::uint32_t>(1, n);
}

sim::Task<>
WorkQueue::workerLoop(std::uint32_t worker)
{
    for (;;) {
        while (totalQueued_ == 0) {
            co_await wait_->wait();
            if (worker >= activeWorkers_) {
                // Retired by setMaxWorkers: hand the wakeup to a live
                // worker (each retiree forwards at most once before
                // exiting, so the chain terminates) and exit; a later
                // setMaxWorkers() respawns this loop.
                loopLive_[worker] = false;
                if (totalQueued_ > 0)
                    wait_->notifyOne(0);
                co_return;
            }
        }
        if (worker >= activeWorkers_) {
            loopLive_[worker] = false;
            wait_->notifyOne(0);
            co_return;
        }
        // Own queue first; otherwise steal from the lowest-indexed
        // backlogged queue. With every producer targeting worker 0
        // (plain enqueue()) this is exactly the classic shared deque.
        std::uint32_t from = worker;
        if (queues_[from].empty()) {
            for (std::uint32_t w = 0; w < workerCap(); ++w) {
                if (!queues_[w].empty()) {
                    from = w;
                    break;
                }
            }
            ++steals_;
        }
        TaskFactory factory = std::move(queues_[from].front());
        queues_[from].pop_front();
        --totalQueued_;
        // Like Linux's concurrency-managed workqueue, a worker that
        // blocks (e.g. in recvfrom) parks without pinning a CPU core;
        // tasks charge their *active* CPU time through the cluster
        // themselves.
        co_await factory(worker);
        ++executed_;
        ++executedBy_[worker];
    }
}

} // namespace genesys::osk
