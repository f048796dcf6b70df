/**
 * @file
 * Unit tests for the discrete-event kernel and coroutine primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/logging.hh"

namespace genesys::sim
{
namespace
{

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DoubleDescheduleIsNoop)
{
    EventQueue eq;
    auto id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunLimitMovesTimeOnlyPastLiveEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    const EventId near = eq.schedule(20, [&] { ++fired; });
    const EventId far = eq.schedule(10'000, [&] { ++fired; });
    // Live events beyond the limit: time moves to the limit.
    EXPECT_EQ(eq.run(5), 5u);
    EXPECT_EQ(fired, 0);
    // Only cancelled events beyond the limit: time stays on the last
    // event run, never on the limit or a cancelled event's tick.
    EXPECT_TRUE(eq.deschedule(near));
    EXPECT_TRUE(eq.deschedule(far));
    EXPECT_EQ(eq.run(50), 10u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.run(20'000), 10u);
    EXPECT_EQ(eq.run(), 10u);
    // A live event far beyond the limit.
    eq.schedule(9'000, [&] { ++fired; });
    EXPECT_EQ(eq.run(3'000), 3'000u);
    EXPECT_EQ(eq.run(), 9'000u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, DescheduleOfFiredIdFailsAfterCellReuse)
{
    EventQueue eq;
    const EventId fired = eq.schedule(1, [] {});
    eq.run();
    // The fired event's cell is free again; the next event reuses it
    // under a new generation, so the stale id must not cancel it.
    bool ran = false;
    const EventId reused = eq.schedule(2, [&] { ran = true; });
    EXPECT_NE(reused, fired);
    EXPECT_EQ(static_cast<std::uint32_t>(reused),
              static_cast<std::uint32_t>(fired));
    EXPECT_FALSE(eq.deschedule(fired));
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(eq.deschedule(reused));
}

TEST(EventQueue, IdsStayUniqueAndNonZeroAcrossCellReuse)
{
    EventQueue eq;
    std::vector<EventId> ids;
    ids.reserve(200000);
    for (int cycle = 0; cycle < 100000; ++cycle) {
        // One event fires and one is cancelled per cycle: the same
        // two cells are reused throughout.
        ids.push_back(eq.scheduleIn(1, [] {}));
        ids.push_back(eq.scheduleIn(1, [] {}));
        EXPECT_TRUE(eq.deschedule(ids.back()));
        EXPECT_TRUE(eq.runOne());
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(std::count(ids.begin(), ids.end(), EventId{0}), 0);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(EventQueue, PendingEventsExactWhileTombstonesRemain)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (Tick t = 0; t < 10; ++t)
        ids.push_back(eq.schedule(100 + t, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        EXPECT_TRUE(eq.deschedule(ids[i]));
    EXPECT_EQ(eq.pendingEvents(), 5u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.runOne()); // pops the tombstone at 100 first
    EXPECT_EQ(eq.now(), 101u);
    EXPECT_EQ(eq.pendingEvents(), 4u);
    for (std::size_t i = 3; i < ids.size(); i += 2)
        EXPECT_TRUE(eq.deschedule(ids[i]));
    // Only tombstones are left in the heap.
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(eq.run(), 101u);
    EXPECT_EQ(eq.executedEvents(), 1u);
}

TEST(EventQueue, SameTickFifoAfterCancellations)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(eq.schedule(50, [&order, i] { order.push_back(i); }));
    for (int i = 0; i < 10; i += 3)
        EXPECT_TRUE(eq.deschedule(ids[i]));
    // Later schedules reuse the cancelled cells but keep their later
    // FIFO rank.
    for (int i = 10; i < 13; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11, 12}));
}

TEST(EventQueue, HandleAndCallbackEventsShareOneFifo)
{
    // Coroutines the queue resumes and plain callbacks run in one
    // (when, seq) order, whichever kind each event is.
    Sim s;
    std::vector<std::string> order;
    auto sleeper = [](Sim &sm, std::vector<std::string> &out,
                      const char *name, Tick d) -> Task<> {
        co_await sm.delay(d);
        out.emplace_back(name);
    };
    s.events().schedule(10, [&] { order.emplace_back("cb-a"); });
    s.spawn(sleeper(s, order, "co-a", 10));
    s.events().schedule(10, [&] { order.emplace_back("cb-b"); });
    s.spawn(sleeper(s, order, "co-b", 5));
    s.run();
    EXPECT_EQ(order, (std::vector<std::string>{"co-b", "cb-a", "co-a",
                                               "cb-b"}));
}

/** Suspends, scheduling its own resumption and reporting the id. */
struct ParkFor
{
    EventQueue &eq;
    Tick delay;
    EventId &id;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h)
    {
        id = eq.scheduleIn(delay, h);
    }
    void await_resume() const noexcept {}
};

TEST(EventQueue, DescheduleCancelsHandleEvent)
{
    Sim s;
    EventId id = 0;
    bool resumed = false;
    s.spawn([](Sim &sm, EventId &out, bool &flag) -> Task<> {
        co_await ParkFor{sm.events(), 5, out};
        flag = true;
    }(s, id, resumed));
    EXPECT_EQ(s.events().pendingEvents(), 1u);
    EXPECT_TRUE(s.events().deschedule(id));
    EXPECT_FALSE(s.events().deschedule(id));
    EXPECT_EQ(s.run(), 0u);
    EXPECT_FALSE(resumed);
    EXPECT_EQ(s.events().executedEvents(), 0u);
    EXPECT_EQ(s.liveTasks(), 1u); // still parked; teardown destroys it
}

TEST(EventQueue, PolicySeesTheIdOfAnEventThatReusesItsCell)
{
    // An event that schedules another one hands it its own, just-freed
    // cell under a new generation. onExecute must still report the id
    // the first event was scheduled under.
    struct Recorder : TieBreakPolicy
    {
        std::size_t
        pick(Tick, const std::vector<TieBreakCandidate> &) override
        {
            return 0;
        }
        void onExecute(EventId id, Tick) override { ran.push_back(id); }
        std::vector<EventId> ran;
    } policy;
    EventQueue eq;
    eq.setTieBreaker(&policy);
    EventId second = 0;
    const EventId first =
        eq.schedule(1, [&] { second = eq.scheduleIn(1, [] {}); });
    eq.run();
    EXPECT_EQ(static_cast<std::uint32_t>(second),
              static_cast<std::uint32_t>(first));
    EXPECT_NE(second, first);
    EXPECT_EQ(policy.ran, (std::vector<EventId>{first, second}));
}

// ------------------------------------------------------------------ tasks

Task<int>
answer()
{
    co_return 42;
}

Task<int>
addOne(Task<int> inner)
{
    const int v = co_await std::move(inner);
    co_return v + 1;
}

TEST(Task, SpawnedTaskRunsToCompletion)
{
    Sim sim;
    int result = 0;
    sim.spawn([](Sim &, int &out) -> Task<> {
        out = co_await answer();
    }(sim, result));
    sim.run();
    EXPECT_EQ(result, 42);
    EXPECT_EQ(sim.liveTasks(), 0u);
}

TEST(Task, NestedAwaitPropagatesValues)
{
    Sim sim;
    int result = 0;
    sim.spawn([](int &out) -> Task<> {
        out = co_await addOne(addOne(answer()));
    }(result));
    sim.run();
    EXPECT_EQ(result, 44);
}

TEST(Task, ExceptionPropagatesThroughAwaitChain)
{
    Sim sim;
    bool caught = false;
    sim.spawn([](bool &flag) -> Task<> {
        auto thrower = []() -> Task<int> {
            fatal("inner failure");
            co_return 0;
        };
        try {
            co_await thrower();
        } catch (const FatalError &) {
            flag = true;
        }
    }(caught));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Task, UncaughtExceptionSurfacesFromRun)
{
    Sim sim;
    sim.spawn([]() -> Task<> {
        fatal("root failure");
        co_return;
    }());
    EXPECT_THROW(sim.run(), FatalError);
}

TEST(Task, DelayAdvancesSimTime)
{
    Sim sim;
    Tick observed = 0;
    sim.spawn([](Sim &s, Tick &out) -> Task<> {
        co_await s.delay(250);
        out = s.now();
    }(sim, observed));
    sim.run();
    EXPECT_EQ(observed, 250u);
}

TEST(Task, ConcurrentTasksInterleaveDeterministically)
{
    Sim sim;
    std::string trace;
    auto worker = [](Sim &s, std::string &t, char tag,
                     Tick step) -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await s.delay(step);
            t.push_back(tag);
        }
    };
    sim.spawn(worker(sim, trace, 'a', 10));
    sim.spawn(worker(sim, trace, 'b', 15));
    sim.run();
    // a: 10,20,30  b: 15,30,45. At tick 30 both fire; b scheduled its
    // event earlier (at t=15) than a (at t=20), so FIFO runs b first.
    EXPECT_EQ(trace, "ababab");
}

// ------------------------------------------------------------------- sync

TEST(Sync, WaitQueueWakesInFifoOrder)
{
    Sim sim;
    WaitQueue q(sim.events());
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](WaitQueue &wq, std::vector<int> &out,
                     int id) -> Task<> {
            co_await wq.wait();
            out.push_back(id);
        }(q, order, i));
    }
    sim.run();
    EXPECT_EQ(q.waiting(), 3u);
    q.notifyAll();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Sync, WaitQueueNotifyOneWakesSingleWaiter)
{
    Sim sim;
    WaitQueue q(sim.events());
    int woke = 0;
    for (int i = 0; i < 2; ++i) {
        sim.spawn([](WaitQueue &wq, int &n) -> Task<> {
            co_await wq.wait();
            ++n;
        }(q, woke));
    }
    sim.run();
    q.notifyOne();
    sim.run();
    EXPECT_EQ(woke, 1);
    EXPECT_EQ(q.waiting(), 1u);
}

TEST(Sync, NotifyLatencyDelaysWake)
{
    Sim sim;
    WaitQueue q(sim.events());
    Tick woke_at = 0;
    sim.spawn([](Sim &s, WaitQueue &wq, Tick &out) -> Task<> {
        co_await wq.wait();
        out = s.now();
    }(sim, q, woke_at));
    sim.run();
    q.notifyOne(ticks::us(5));
    sim.run();
    EXPECT_EQ(woke_at, ticks::us(5));
}

TEST(Sync, SemaphoreLimitsConcurrency)
{
    Sim sim;
    Semaphore sem(sim.events(), 2);
    int active = 0, peak = 0;
    for (int i = 0; i < 6; ++i) {
        sim.spawn([](Sim &s, Semaphore &sm, int &act, int &pk) -> Task<> {
            co_await sm.acquire();
            ++act;
            pk = std::max(pk, act);
            co_await s.delay(10);
            --act;
            sm.release();
        }(sim, sem, active, peak));
    }
    sim.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    EXPECT_EQ(sem.available(), 2u);
}

TEST(Sync, SemaphoreTryAcquire)
{
    Sim sim;
    Semaphore sem(sim.events(), 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(Sync, BarrierReleasesAllPartiesTogether)
{
    Sim sim;
    Barrier bar(sim.events(), 4);
    std::vector<Tick> release_times;
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](Sim &s, Barrier &b, std::vector<Tick> &out,
                     Tick arrive) -> Task<> {
            co_await s.delay(arrive);
            co_await b.arriveAndWait();
            out.push_back(s.now());
        }(sim, bar, release_times, Tick(i * 100)));
    }
    sim.run();
    ASSERT_EQ(release_times.size(), 4u);
    for (Tick t : release_times)
        EXPECT_EQ(t, 300u); // all released when the last (300ns) arrives
}

TEST(Sync, BarrierIsReusableAcrossRounds)
{
    Sim sim;
    Barrier bar(sim.events(), 2);
    int rounds_done = 0;
    for (int i = 0; i < 2; ++i) {
        sim.spawn([](Sim &s, Barrier &b, int &done, int id) -> Task<> {
            for (int round = 0; round < 3; ++round) {
                co_await s.delay(Tick(10 * (id + 1)));
                co_await b.arriveAndWait();
            }
            ++done;
        }(sim, bar, rounds_done, i));
    }
    sim.run();
    EXPECT_EQ(rounds_done, 2);
}

TEST(Sync, BarrierZeroPartiesPanics)
{
    Sim sim;
    EXPECT_THROW(Barrier(sim.events(), 0), PanicError);
}

TEST(Task, TeardownDestroysParkedRootTasks)
{
    // A root parked forever (a worker loop at teardown) is destroyed
    // with its Sim, together with the child task it awaits.
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    {
        Sim sim;
        WaitQueue never(sim.events());
        auto child = [](WaitQueue &q, std::shared_ptr<int> t) -> Task<> {
            co_await q.wait();
            ++*t;
        };
        sim.spawn([](Task<> c) -> Task<> { co_await std::move(c); }(
            child(never, std::move(token))));
        sim.run();
        EXPECT_EQ(sim.liveTasks(), 1u);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

} // namespace
} // namespace genesys::sim
