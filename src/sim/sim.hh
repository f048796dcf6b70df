/**
 * @file
 * Simulation context: event queue + root-task spawner + RNG.
 *
 * A Sim owns everything a model needs to run. Root tasks (spawned via
 * spawn()) execute concurrently over the shared event queue; run()
 * drives the queue and rethrows the first exception any root task
 * raised, so test failures inside coroutines surface normally.
 */

#ifndef GENESYS_SIM_SIM_HH
#define GENESYS_SIM_SIM_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <list>
#include <string>

#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/random.hh"
#include "support/types.hh"

namespace genesys::sim
{

class Sim
{
  public:
    explicit Sim(std::uint64_t seed = 1) : random_(seed) {}
    ~Sim() { destroyTasks(); }

    // Root frames register their address with the Sim.
    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    EventQueue &events() { return eq_; }
    Tick now() const { return eq_.now(); }
    Random &random() { return random_; }

    /** Awaitable fixed delay. */
    Delay delay(Tick ticks) { return Delay(eq_, ticks); }

    /**
     * Launch @p task as a root coroutine. It starts at the current tick
     * and runs to completion as events fire. An escaping exception is
     * captured and rethrown from run().
     */
    void spawn(Task<> task);

    /** Number of spawned root tasks that have not yet finished. */
    std::size_t liveTasks() const { return roots_.size(); }

    /**
     * Destroy every root task that has not finished (teardown: worker
     * loops parked forever, schedules cut by a budget). Each root's
     * frame destroys the chain of tasks it awaits.
     */
    void destroyTasks();

    /**
     * Run until the event queue drains or @p limit is reached. When
     * @p max_events is non-zero, additionally stop after that many
     * events (model-checking budget for schedules that never quiesce).
     * Rethrows the first exception any root task raised either way.
     * @return final simulated time.
     */
    Tick run(Tick limit = kMaxTick, std::uint64_t max_events = 0);

  private:
    using Roots = std::list<std::coroutine_handle<>>;

    // Eager, self-destroying wrapper coroutine that owns a root Task.
    // Its frame stays in roots_ from creation to destruction.
    struct RootTask
    {
        struct promise_type
        {
            promise_type(Sim &sim, Task<> &)
                : roots(sim.roots_),
                  pos(roots.insert(
                      roots.end(),
                      std::coroutine_handle<promise_type>::from_promise(
                          *this)))
            {}
            ~promise_type() { roots.erase(pos); }

            Roots &roots;
            Roots::iterator pos;

            RootTask get_return_object() { return {}; }
            std::suspend_never initial_suspend() noexcept { return {}; }
            std::suspend_never final_suspend() noexcept { return {}; }
            void return_void() {}
            void unhandled_exception() { std::terminate(); }
        };
    };

    RootTask runRoot(Task<> task);

    EventQueue eq_;
    Random random_;
    Roots roots_;
    std::exception_ptr firstError_;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_SIM_HH
