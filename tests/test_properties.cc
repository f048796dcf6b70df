/**
 * @file
 * Property and stress tests: randomized sequences checked against
 * reference models or invariants, parameterized over seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "mem/cache_model.hh"
#include "osk/mm.hh"
#include "osk/pipe.hh"
#include "osk/process.hh"
#include "osk/syscalls.hh"
#include "sim/sim.hh"
#include "support/random.hh"
#include "workloads/memcached.hh"
#include "workloads/wordcount.hh"

namespace genesys
{
namespace
{

class Seeded : public ::testing::TestWithParam<std::uint64_t>
{};

// ------------------------------------------------------ EventQueue stress

TEST_P(Seeded, EventQueueExecutesInNondecreasingTimeOrder)
{
    // Random schedule/deschedule/runOne against a reference: the live
    // events keyed by (when, schedule order). Every executed event must
    // be the reference's least key, and deschedule must succeed exactly
    // for ids the reference still holds.
    Random rng(GetParam());
    sim::EventQueue eq;
    using RefKey = std::pair<Tick, std::uint64_t>;
    std::set<RefKey> reference;
    std::map<sim::EventId, RefKey> keyOf;
    std::vector<RefKey> executed;
    std::vector<sim::EventId> ids;
    std::uint64_t order = 0;
    for (int i = 0; i < 2000; ++i) {
        const int action = static_cast<int>(rng.below(10));
        if (action < 6) {
            const RefKey key{eq.now() + rng.below(1000), order++};
            const sim::EventId id =
                eq.schedule(key.first, [&executed, &reference, key] {
                    ASSERT_FALSE(reference.empty());
                    EXPECT_EQ(*reference.begin(), key);
                    reference.erase(key);
                    executed.push_back(key);
                });
            ASSERT_TRUE(keyOf.emplace(id, key).second) << "id reused";
            reference.insert(key);
            ids.push_back(id);
        } else if (action < 8 && !ids.empty()) {
            const sim::EventId id = ids[rng.below(ids.size())];
            const bool held = reference.erase(keyOf.at(id)) > 0;
            EXPECT_EQ(eq.deschedule(id), held);
        } else {
            EXPECT_EQ(eq.runOne(), !reference.empty());
        }
        ASSERT_EQ(eq.pendingEvents(), reference.size());
    }
    eq.run();
    EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
    EXPECT_TRUE(reference.empty());
    EXPECT_TRUE(eq.empty());
}

/** Always picks the FIFO candidate, recording what it was offered. */
class FirstCandidatePolicy : public sim::TieBreakPolicy
{
  public:
    std::size_t
    pick(Tick, const std::vector<sim::TieBreakCandidate> &c) override
    {
        for (std::size_t i = 1; i < c.size(); ++i)
            EXPECT_LT(c[i - 1].seq, c[i].seq);
        ++choicePoints;
        return 0;
    }
    void onExecute(sim::EventId id, Tick) override { ran.push_back(id); }

    std::uint64_t choicePoints = 0;
    std::vector<sim::EventId> ran;
};

TEST_P(Seeded, FifoTieBreakPolicyReproducesPolicyFreeRunWithTombstones)
{
    // The same seeded script of same-tick-heavy schedules and
    // cancellations, with and without an always-0 policy installed:
    // the execution order, ids and clock must be identical, and the
    // policy's ids must be exactly the ones that ran.
    struct Run
    {
        std::vector<int> labels;
        std::vector<sim::EventId> ids;
        Tick end = 0;
    };
    auto script = [seed = GetParam()](sim::TieBreakPolicy *policy) {
        Random rng(seed * 97 + 13);
        sim::EventQueue eq;
        eq.setTieBreaker(policy);
        Run out;
        std::vector<sim::EventId> scheduled; // indexed by label
        for (int i = 0; i < 1500; ++i) {
            const int action = static_cast<int>(rng.below(10));
            if (action < 5) {
                const int label = static_cast<int>(scheduled.size());
                const sim::EventId id = eq.schedule(
                    eq.now() + rng.below(4), [&out, label, &eq, &rng] {
                        out.labels.push_back(label);
                        // Callbacks schedule same-tick work too.
                        if (rng.chance(0.2))
                            eq.scheduleIn(0, [] {});
                    });
                scheduled.push_back(id);
            } else if (action < 8 && !scheduled.empty()) {
                eq.deschedule(scheduled[rng.below(scheduled.size())]);
            } else {
                eq.runOne();
            }
        }
        eq.run();
        for (const int label : out.labels)
            out.ids.push_back(scheduled[label]);
        out.end = eq.now();
        return out;
    };
    const Run plain = script(nullptr);
    FirstCandidatePolicy policy;
    const Run fifo = script(&policy);
    EXPECT_EQ(fifo.labels, plain.labels);
    EXPECT_EQ(fifo.ids, plain.ids);
    EXPECT_EQ(fifo.end, plain.end);
    EXPECT_GT(policy.choicePoints, 0u);
    // The policy saw every labeled event run, in order, among the
    // unlabeled ones the callbacks spawned.
    std::vector<sim::EventId> labeledRan;
    for (const sim::EventId id : policy.ran) {
        if (std::find(fifo.ids.begin(), fifo.ids.end(), id) !=
            fifo.ids.end())
            labeledRan.push_back(id);
    }
    EXPECT_EQ(labeledRan, fifo.ids);
}

/** Always picks the newest candidate, so every tie reorders. */
class LastCandidatePolicy : public sim::TieBreakPolicy
{
  public:
    std::size_t
    pick(Tick, const std::vector<sim::TieBreakCandidate> &c) override
    {
        return c.size() - 1;
    }
};

TEST_P(Seeded, EventQueueMatchesReferenceAcrossNearAndFarDelays)
{
    // A seeded script of schedules (delays on both sides of 2048 ticks
    // and far beyond), cancellations of near and far events, runOne()
    // and run(limit, max_events) stops between events, checked against
    // a reference: the pending events sorted by (when, schedule order),
    // and ids from a LIFO free list of cells whose generation advances
    // on every claim and release. It runs with no policy, the FIFO
    // policy and a newest-first policy; the first two must agree on
    // order, ids and clock.
    static constexpr Tick kDelays[] = {0,    1,    2047,     2048,
                                       2049, 6144, 50'000};
    enum class Policy
    {
        None,
        First,
        Last,
    };
    struct Run
    {
        std::vector<int> labels;
        std::vector<sim::EventId> ids;
        std::vector<Tick> clocks;
    };
    auto script = [seed = GetParam()](Policy which) {
        Random rng(seed * 131 + 5);
        FirstCandidatePolicy first;
        LastCandidatePolicy last;
        sim::EventQueue eq;
        if (which == Policy::First)
            eq.setTieBreaker(&first);
        else if (which == Policy::Last)
            eq.setTieBreaker(&last);

        std::set<std::pair<Tick, int>> pending; // (when, label)
        std::vector<Tick> whenOf;
        std::vector<std::uint32_t> cellOf;
        std::vector<sim::EventId> idOf;
        std::vector<std::uint32_t> gens;
        std::vector<std::uint32_t> freeCells;
        Run out;

        const auto release = [&](int label) {
            const std::uint32_t cell = cellOf[label];
            ++gens[cell];
            freeCells.push_back(cell);
            pending.erase({whenOf[label], label});
        };
        // The event the reference runs next: the oldest at the
        // earliest tick, or the newest there under Policy::Last.
        const auto expectedNext = [&] {
            auto it = pending.begin();
            if (which == Policy::Last) {
                auto after = pending.lower_bound({it->first + 1, 0});
                it = std::prev(after);
            }
            return it->second;
        };
        std::function<void(Tick)> add = [&](Tick delay) {
            const int label = static_cast<int>(whenOf.size());
            const Tick when = eq.now() + delay;
            std::uint32_t cell;
            if (freeCells.empty()) {
                cell = static_cast<std::uint32_t>(gens.size());
                gens.push_back(0);
            } else {
                cell = freeCells.back();
                freeCells.pop_back();
            }
            ++gens[cell];
            const sim::EventId expectedId =
                sim::EventId{gens[cell]} << 32 | cell;
            whenOf.push_back(when);
            cellOf.push_back(cell);
            pending.insert({when, label});
            const sim::EventId id = eq.schedule(when, [&, label] {
                ASSERT_FALSE(pending.empty());
                EXPECT_EQ(expectedNext(), label);
                EXPECT_EQ(eq.now(), whenOf[label]);
                release(label);
                out.labels.push_back(label);
                // Events schedule more events, near and far.
                if (rng.chance(0.3))
                    add(kDelays[rng.below(std::size(kDelays))]);
            });
            EXPECT_EQ(id, expectedId);
            idOf.push_back(id);
        };

        for (int i = 0; i < 3000; ++i) {
            const int action = static_cast<int>(rng.below(20));
            if (action < 9) {
                add(rng.chance(0.7) ? kDelays[rng.below(std::size(kDelays))]
                                    : rng.below(3 * 2048));
            } else if (action < 13 && !whenOf.empty()) {
                // Half the time a still-pending event, near or far.
                int label = static_cast<int>(rng.below(whenOf.size()));
                if (rng.chance(0.5) && !pending.empty()) {
                    auto it = pending.begin();
                    std::advance(it, rng.below(pending.size()));
                    label = it->second;
                }
                const bool held = pending.count({whenOf[label], label}) > 0;
                EXPECT_EQ(eq.deschedule(idOf[label]), held);
                if (held)
                    release(label);
            } else if (action < 17) {
                const bool any = !pending.empty();
                EXPECT_EQ(eq.runOne(), any);
            } else {
                const Tick limit =
                    eq.now() + (rng.chance(0.5)
                                    ? kDelays[rng.below(std::size(kDelays))]
                                    : rng.below(4 * 2048));
                const std::uint64_t budget = rng.below(4);
                const Tick before = eq.now();
                const std::size_t ranBefore = out.labels.size();
                const Tick end = eq.run(limit, budget);
                EXPECT_EQ(end, eq.now());
                // Time moves to the limit only when live events remain
                // beyond it; otherwise it rests on the last event run.
                Tick expected = out.labels.size() > ranBefore
                                    ? whenOf[out.labels.back()]
                                    : before;
                if (!pending.empty() && pending.begin()->first > limit)
                    expected = limit;
                EXPECT_EQ(eq.now(), expected);
            }
            EXPECT_EQ(eq.pendingEvents(), pending.size());
            out.clocks.push_back(eq.now());
        }
        eq.run();
        EXPECT_TRUE(pending.empty());
        EXPECT_TRUE(eq.empty());
        if (which == Policy::First) {
            EXPECT_GT(first.choicePoints, 0u);
        }
        for (const int label : out.labels)
            out.ids.push_back(idOf[label]);
        out.clocks.push_back(eq.now());
        return out;
    };
    const Run plain = script(Policy::None);
    const Run fifo = script(Policy::First);
    EXPECT_EQ(fifo.labels, plain.labels);
    EXPECT_EQ(fifo.ids, plain.ids);
    EXPECT_EQ(fifo.clocks, plain.clocks);
    const Run newest = script(Policy::Last);
    EXPECT_FALSE(newest.labels.empty());
}

// ------------------------------------------- file ops vs reference model

TEST_P(Seeded, RandomFileOpsMatchReferenceModel)
{
    Random rng(GetParam() * 31 + 7);
    sim::Sim sim;
    osk::Kernel kernel(sim, osk::KernelConfig{});
    osk::Process &proc = kernel.createProcess();
    kernel.vfs().createFile("/model");

    auto sys = [&](int num, osk::SyscallArgs args) {
        std::int64_t ret = -1;
        sim.spawn([](osk::Kernel &k, osk::Process &p, int n,
                     osk::SyscallArgs a, std::int64_t &out)
                      -> sim::Task<> {
            out = co_await k.doSyscall(p, n, a);
        }(kernel, proc, num, args, ret));
        sim.run();
        return ret;
    };

    const auto fd = sys(osk::sysno::open,
                        osk::makeArgs("/model", osk::O_RDWR));
    ASSERT_GE(fd, 0);

    std::vector<std::uint8_t> model; // reference file contents
    std::uint64_t model_pos = 0;

    for (int step = 0; step < 300; ++step) {
        const int op = static_cast<int>(rng.below(4));
        std::uint8_t buf[64];
        const std::uint64_t len = rng.below(sizeof buf) + 1;
        switch (op) {
          case 0: { // write at current position
            for (std::uint64_t i = 0; i < len; ++i)
                buf[i] = static_cast<std::uint8_t>(rng.below(256));
            const auto n =
                sys(osk::sysno::write, osk::makeArgs(fd, buf, len));
            ASSERT_EQ(n, static_cast<std::int64_t>(len));
            if (model.size() < model_pos + len)
                model.resize(model_pos + len, 0);
            std::copy(buf, buf + len, model.begin() + model_pos);
            model_pos += len;
            break;
          }
          case 1: { // read at current position
            const auto n =
                sys(osk::sysno::read, osk::makeArgs(fd, buf, len));
            const std::uint64_t expect =
                model_pos >= model.size()
                    ? 0
                    : std::min<std::uint64_t>(len,
                                              model.size() - model_pos);
            ASSERT_EQ(n, static_cast<std::int64_t>(expect));
            for (std::uint64_t i = 0; i < expect; ++i)
                ASSERT_EQ(buf[i], model[model_pos + i]);
            model_pos += expect;
            break;
          }
          case 2: { // lseek
            const std::uint64_t target =
                rng.below(model.size() + 64);
            ASSERT_EQ(sys(osk::sysno::lseek,
                          osk::makeArgs(fd, target, osk::SEEK_SET_)),
                      static_cast<std::int64_t>(target));
            model_pos = target;
            break;
          }
          case 3: { // pwrite: must not disturb the position
            const std::uint64_t off = rng.below(model.size() + 16);
            for (std::uint64_t i = 0; i < len; ++i)
                buf[i] = static_cast<std::uint8_t>(rng.below(256));
            ASSERT_EQ(sys(osk::sysno::pwrite64,
                          osk::makeArgs(fd, buf, len, off)),
                      static_cast<std::int64_t>(len));
            if (model.size() < off + len)
                model.resize(off + len, 0);
            std::copy(buf, buf + len, model.begin() + off);
            break;
          }
        }
    }
    // Final content equality.
    auto *f = static_cast<osk::RegularFile *>(
        kernel.vfs().resolve("/model"));
    ASSERT_EQ(f->size(), model.size());
    EXPECT_TRUE(std::equal(model.begin(), model.end(),
                           f->data().begin()));
}

// -------------------------------------------------- memory-manager fuzz

TEST_P(Seeded, RandomMmInvariantsHold)
{
    Random rng(GetParam() * 977 + 3);
    sim::Sim sim;
    osk::OskParams params;
    const std::uint64_t limit_pages = 64;
    osk::MemoryManager mm(sim.events(), params,
                          limit_pages * osk::kPageSize);

    struct Mapping
    {
        osk::Addr base;
        std::uint64_t pages;
    };
    std::vector<Mapping> mappings;

    for (int step = 0; step < 400; ++step) {
        const int op = static_cast<int>(rng.below(10));
        if (op < 3) { // mmap
            const std::uint64_t pages = rng.below(32) + 1;
            const osk::Addr base =
                mm.mmapAnon(pages * osk::kPageSize);
            ASSERT_NE(base, 0u);
            mappings.push_back({base, pages});
        } else if (op < 6 && !mappings.empty()) { // touch a range
            const auto &m = mappings[rng.below(mappings.size())];
            const std::uint64_t first = rng.below(m.pages);
            const std::uint64_t count =
                rng.below(m.pages - first) + 1;
            mm.touchUntimed(m.base + first * osk::kPageSize,
                            count * osk::kPageSize);
        } else if (op < 8 && !mappings.empty()) { // madvise
            const auto &m = mappings[rng.below(mappings.size())];
            ASSERT_EQ(mm.madvise(m.base, m.pages * osk::kPageSize,
                                 osk::MADV_DONTNEED_),
                      0);
        } else if (op == 8 && !mappings.empty()) { // partial munmap
            const std::size_t idx = rng.below(mappings.size());
            const Mapping m = mappings[idx];
            const std::uint64_t first = rng.below(m.pages);
            const std::uint64_t count =
                rng.below(m.pages - first) + 1;
            ASSERT_TRUE(mm.munmap(m.base + first * osk::kPageSize,
                                  count * osk::kPageSize));
            // Mirror the split in the model: surviving head and/or
            // tail become separate mappings.
            mappings.erase(mappings.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            if (first > 0)
                mappings.push_back({m.base, first});
            if (first + count < m.pages)
                mappings.push_back(
                    {m.base + (first + count) * osk::kPageSize,
                     m.pages - first - count});
        } else if (!mappings.empty()) { // full munmap
            const std::size_t idx = rng.below(mappings.size());
            ASSERT_TRUE(mm.munmap(mappings[idx].base,
                                  mappings[idx].pages *
                                      osk::kPageSize));
            mappings.erase(mappings.begin() +
                           static_cast<std::ptrdiff_t>(idx));
        }
        // Invariants: RSS never exceeds the physical limit; peak is a
        // high watermark; RSS fits within the mapped footprint.
        ASSERT_LE(mm.rssBytes(), limit_pages * osk::kPageSize);
        ASSERT_GE(mm.peakRssBytes(), mm.rssBytes());
        std::uint64_t mapped = 0;
        for (const auto &m : mappings)
            mapped += m.pages * osk::kPageSize;
        ASSERT_LE(mm.rssBytes() + mm.swappedBytes(), mapped);
        ASSERT_EQ(mm.vmaCount(), mappings.size());
    }
}

// ---------------------------------------------- slot FSM random walk

TEST_P(Seeded, SlotFsmCheckerAcceptsLegalAndPanicsOnIllegalEdges)
{
    // Drive a SyscallSlot with a random mix of its real entry points
    // and adversarial forced transitions, against a model of Fig 6.
    // Legal sequences must advance silently; every illegal edge must
    // panic and leave the slot state unchanged.
    Random rng(GetParam() * 67 + 11);
    core::SyscallSlot slot;
    core::SlotState model = core::SlotState::Free;
    bool blocking = true;
    std::uint64_t legal = 0;

    for (int step = 0; step < 5000; ++step) {
        if (rng.chance(0.3)) {
            // Adversarial forced edge to a random target state.
            const auto to =
                static_cast<core::SlotState>(rng.below(5));
            if (core::slotTransitionLegal(model, to, blocking)) {
                slot.forceState(to);
                model = to;
                ++legal;
            } else {
                EXPECT_THROW(slot.forceState(to), PanicError);
                EXPECT_EQ(slot.state(), model);
            }
            continue;
        }
        switch (rng.below(5)) {
          case 0: { // GPU claim
            const bool ok = slot.claim();
            EXPECT_EQ(ok, model == core::SlotState::Free);
            if (ok) {
                model = core::SlotState::Populating;
                ++legal;
            }
            break;
          }
          case 1: { // GPU publish
            const bool will_block = rng.chance(0.5);
            if (model == core::SlotState::Populating) {
                slot.publish(osk::sysno::getpid, {}, will_block,
                             core::WaitMode::Polling, 0);
                blocking = will_block;
                model = core::SlotState::Ready;
                ++legal;
            } else {
                EXPECT_THROW(slot.publish(osk::sysno::getpid, {},
                                          will_block,
                                          core::WaitMode::Polling, 0),
                             PanicError);
                EXPECT_EQ(slot.state(), model);
            }
            break;
          }
          case 2: { // CPU take
            const bool ok = slot.beginProcessing();
            EXPECT_EQ(ok, model == core::SlotState::Ready);
            if (ok) {
                model = core::SlotState::Processing;
                ++legal;
            }
            break;
          }
          case 3: { // CPU complete
            if (model == core::SlotState::Processing) {
                slot.complete(0);
                model = blocking ? core::SlotState::Finished
                                 : core::SlotState::Free;
                ++legal;
            } else {
                EXPECT_THROW(slot.complete(0), PanicError);
                EXPECT_EQ(slot.state(), model);
            }
            break;
          }
          case 4: { // GPU consume
            if (model == core::SlotState::Finished) {
                (void)slot.consume();
                model = core::SlotState::Free;
                ++legal;
            } else {
                EXPECT_THROW((void)slot.consume(), PanicError);
                EXPECT_EQ(slot.state(), model);
            }
            break;
          }
        }
    }
    // The transitions counter counts exactly the checker-approved
    // edges — no illegal attempt slipped through.
    EXPECT_EQ(slot.transitions(), legal);
    EXPECT_GT(legal, 0u);
}

TEST_P(Seeded, ShardedAreaQuiescenceMatchesPerSlotModel)
{
    // Random-walk a multi-shard SyscallArea through real slot entry
    // points against a per-slot model, checking after every step that
    // per-shard quiescence agrees with the model and that the shard
    // maps place each slot where the geometry says it lives.
    Random rng(GetParam() * 131 + 5);
    gpu::GpuConfig gcfg;
    gcfg.numCus = 4;
    gcfg.maxWavesPerCu = 2;
    gcfg.wavefrontSize = 4;
    core::GenesysParams params;
    params.areaShards = 2;
    core::SyscallArea area(gcfg, params);
    const auto n = static_cast<std::uint32_t>(area.slotCount());
    ASSERT_EQ(n, 4u * 2 * 4);
    ASSERT_EQ(area.shardSlotCount() * 2, n);

    std::vector<core::SlotState> model(n, core::SlotState::Free);
    std::vector<bool> blocking(n, true);
    // Slot index -> owning shard is static geometry: item slots of the
    // first two CUs' waves sit in shard 0, the rest in shard 1.
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(area.shardOfSlot(i),
                  i < area.shardSlotCount() ? 0u : 1u);
    }

    for (int step = 0; step < 4000; ++step) {
        const auto i = static_cast<std::uint32_t>(rng.below(n));
        auto &slot = area.slot(i);
        switch (model[i]) {
          case core::SlotState::Free:
            if (rng.chance(0.7)) {
                EXPECT_TRUE(slot.claim());
                model[i] = core::SlotState::Populating;
            }
            break;
          case core::SlotState::Populating: {
            const bool b = rng.chance(0.5);
            const auto wave = i / gcfg.wavefrontSize;
            slot.publish(osk::sysno::getpid, {}, b,
                         core::WaitMode::Polling, wave);
            blocking[i] = b;
            model[i] = core::SlotState::Ready;
            // The slot remembers a wave of its own shard.
            EXPECT_EQ(area.shardOfWave(slot.hwWaveSlot()),
                      area.shardOfSlot(i));
            break;
          }
          case core::SlotState::Ready:
            EXPECT_TRUE(slot.beginProcessing());
            model[i] = core::SlotState::Processing;
            break;
          case core::SlotState::Processing:
            slot.complete(0);
            model[i] = blocking[i] ? core::SlotState::Finished
                                   : core::SlotState::Free;
            break;
          case core::SlotState::Finished:
            (void)slot.consume();
            model[i] = core::SlotState::Free;
            break;
        }
        for (std::uint32_t s = 0; s < 2; ++s) {
            bool model_quiescent = true;
            const auto first = area.shardFirstSlot(s);
            for (std::uint32_t k = 0; k < area.shardSlotCount(); ++k) {
                model_quiescent &=
                    model[first + k] == core::SlotState::Free;
            }
            ASSERT_EQ(area.quiescent(s), model_quiescent)
                << "shard " << s << " at step " << step;
        }
        ASSERT_EQ(area.quiescent(),
                  area.quiescent(0) && area.quiescent(1));
    }

    // Drain everything; both shards must come back to quiescent.
    for (std::uint32_t i = 0; i < n; ++i) {
        auto &slot = area.slot(i);
        if (model[i] == core::SlotState::Populating) {
            slot.publish(osk::sysno::getpid, {}, true,
                         core::WaitMode::Polling, 0);
            blocking[i] = true;
            model[i] = core::SlotState::Ready;
        }
        if (model[i] == core::SlotState::Ready) {
            ASSERT_TRUE(slot.beginProcessing());
            model[i] = core::SlotState::Processing;
        }
        if (model[i] == core::SlotState::Processing) {
            slot.complete(0);
            model[i] = blocking[i] ? core::SlotState::Finished
                                   : core::SlotState::Free;
        }
        if (model[i] == core::SlotState::Finished) {
            (void)slot.consume();
            model[i] = core::SlotState::Free;
        }
    }
    EXPECT_TRUE(area.quiescent(0));
    EXPECT_TRUE(area.quiescent(1));
    EXPECT_TRUE(area.quiescent());
}

TEST_P(Seeded, ReadyIndexTracksReadySlotsWithinShards)
{
    // Random claim/publish/beginProcessing/complete/consume/forceState
    // on a small multi-shard area whose shard boundaries fall inside a
    // 64-bit index word. After every step the ready index must equal
    // {i : slot(i).ready()}, and nextReady(from, shardEnd) must return
    // the least Ready index >= from without leaving the shard.
    Random rng(GetParam() * 173 + 29);
    gpu::GpuConfig gcfg;
    gcfg.numCus = 4;
    gcfg.maxWavesPerCu = 3;
    gcfg.wavefrontSize = 16;
    core::GenesysParams params;
    params.areaShards = 2;
    core::SyscallArea area(gcfg, params);
    const auto n = static_cast<std::uint32_t>(area.slotCount());
    ASSERT_EQ(area.shardSlotCount(), 96u);

    auto leastReady = [&](std::uint32_t from, std::uint32_t end) {
        while (from < end && !area.slot(from).ready())
            ++from;
        return from;
    };
    for (int step = 0; step < 3000; ++step) {
        const auto i = static_cast<std::uint32_t>(rng.below(n));
        auto &slot = area.slot(i);
        const core::SlotState st = slot.state();
        switch (rng.below(6)) {
          case 0:
            (void)slot.claim();
            break;
          case 1:
            if (st == core::SlotState::Populating) {
                slot.publish(osk::sysno::getpid, {}, rng.chance(0.5),
                             core::WaitMode::Polling,
                             i / gcfg.wavefrontSize);
            }
            break;
          case 2:
            EXPECT_EQ(slot.beginProcessing(),
                      st == core::SlotState::Ready);
            break;
          case 3:
            if (st == core::SlotState::Processing)
                slot.complete(0);
            break;
          case 4:
            if (st == core::SlotState::Finished)
                (void)slot.consume();
            break;
          case 5: {
            const auto to = static_cast<core::SlotState>(rng.below(5));
            if (core::slotTransitionLegal(st, to, slot.blocking()))
                slot.forceState(to);
            break;
          }
        }

        std::vector<std::uint32_t> indexed;
        for (std::uint32_t j = area.nextReady(0, n); j < n;
             j = area.nextReady(j + 1, n))
            indexed.push_back(j);
        std::vector<std::uint32_t> ready;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (area.slot(j).ready())
                ready.push_back(j);
        }
        ASSERT_EQ(indexed, ready) << "step " << step;

        for (std::uint32_t s = 0; s < area.shardCount(); ++s) {
            const std::uint32_t first = area.shardFirstSlot(s);
            const std::uint32_t end = first + area.shardSlotCount();
            for (int probe = 0; probe < 4; ++probe) {
                const auto from = static_cast<std::uint32_t>(
                    first + rng.below(area.shardSlotCount() + 1));
                ASSERT_EQ(area.nextReady(from, end),
                          leastReady(from, end))
                    << "shard " << s << " from " << from;
            }
            ASSERT_EQ(area.nextReady(first, end),
                      leastReady(first, end));
        }
    }
}

// --------------------------------------------------------- cache property

TEST_P(Seeded, LargerCacheNeverMissesMoreOnSameTrace)
{
    // LRU inclusion property: doubling capacity (same line size and
    // set count scaling via associativity) cannot increase misses.
    Random rng(GetParam() * 13 + 1);
    std::vector<mem::Addr> trace;
    for (int i = 0; i < 5000; ++i)
        trace.push_back(rng.below(512) * 64);

    auto misses = [&trace](std::uint32_t assoc) {
        mem::CacheParams p;
        p.lineBytes = 64;
        p.associativity = assoc;
        p.sizeBytes = std::uint64_t(64) * 16 * assoc; // 16 sets
        mem::CacheModel c(p);
        for (auto a : trace)
            c.access(a);
        return c.misses();
    };
    EXPECT_GE(misses(2), misses(4));
    EXPECT_GE(misses(4), misses(8));
    EXPECT_GE(misses(8), misses(16));
}

TEST_P(Seeded, FlatLruMatchesListReference)
{
    // A std::list true-LRU per set, front = most recently used, is the
    // reference; every access's hit/miss must agree with it.
    Random rng(GetParam() * 29 + 3);
    for (const std::uint32_t assoc : {1u, 2u, 16u}) {
        for (const std::uint64_t sets : {7u, 16u}) {
            mem::CacheParams p;
            p.lineBytes = 64;
            p.associativity = assoc;
            p.sizeBytes = std::uint64_t(64) * assoc * sets;
            mem::CacheModel c(p);
            ASSERT_EQ(c.lineCapacity(), assoc * sets);
            std::vector<std::list<mem::Addr>> ref(sets);
            std::uint64_t hits = 0, misses = 0;
            for (int step = 0; step < 4000; ++step) {
                // Twice the capacity's lines: hits and evictions both.
                const mem::Addr addr =
                    rng.below(2 * assoc * sets) * 64 + rng.below(64);
                const mem::Addr line = addr / 64;
                auto &lru = ref[line % sets];
                const auto it = std::find(lru.begin(), lru.end(), line);
                const std::uint64_t op = rng.below(100);
                if (op < 85) {
                    const bool hit = it != lru.end();
                    if (hit) {
                        lru.splice(lru.begin(), lru, it);
                        ++hits;
                    } else {
                        lru.push_front(line);
                        if (lru.size() > assoc)
                            lru.pop_back();
                        ++misses;
                    }
                    ASSERT_EQ(c.access(addr), hit)
                        << "assoc " << assoc << " sets " << sets
                        << " step " << step;
                } else if (op < 99) {
                    if (it != lru.end())
                        lru.erase(it);
                    c.invalidate(addr);
                } else {
                    for (auto &l : ref)
                        l.clear();
                    c.flushAll();
                }
            }
            EXPECT_EQ(c.hits(), hits);
            EXPECT_EQ(c.misses(), misses);
            EXPECT_GT(hits, 0u);
            EXPECT_GT(misses, 0u);
        }
    }
}

// ------------------------------------------------------------- wordcount

TEST_P(Seeded, OnePassWordCountMatchesPerWordReference)
{
    // Texts over 2-3 letters make self-overlapping matches (aa, aaa,
    // abab) common, so the non-overlap rule is exercised everywhere.
    Random rng(GetParam() * 41 + 17);
    for (int round = 0; round < 60; ++round) {
        const char letters = static_cast<char>(2 + rng.below(2));
        auto randomText = [&rng, letters](std::size_t len) {
            std::string t;
            for (std::size_t i = 0; i < len; ++i)
                t += static_cast<char>('a' + rng.below(letters));
            return t;
        };
        // Every fourth text is short (the first is empty), so some
        // words are longer than the text.
        const std::string text =
            round == 0 ? std::string()
                       : randomText(round % 4 == 0 ? rng.below(12)
                                                   : rng.below(600));
        std::vector<std::string> words = {"", "a", "aa", "aaa", "abab",
                                          "aaaa"};
        for (int w = 0; w < 20; ++w)
            words.push_back(randomText(1 + rng.below(12)));
        const std::string base = words.back();
        words.push_back(base);                                  // duplicate
        words.push_back(base.substr(0, 1 + rng.below(base.size()))); // prefix
        words.push_back(base.substr(rng.below(base.size())));        // suffix
        words.push_back(randomText(text.size() + 1 + rng.below(3)));

        std::vector<std::uint64_t> counts(words.size());
        for (std::size_t w = 0; w < words.size(); ++w)
            counts[w] = w; // the counter adds into what is there
        workloads::countWordsInto(text, words, counts);
        for (std::size_t w = 0; w < words.size(); ++w) {
            ASSERT_EQ(counts[w],
                      w + workloads::countOccurrences(text, words[w]))
                << "round " << round << " word '" << words[w]
                << "' text '" << text << "'";
        }
    }
}

// ----------------------------------------------------------- pipe stream

TEST_P(Seeded, PipePreservesByteStreamUnderRandomInterleaving)
{
    Random rng(GetParam() * 101 + 9);
    sim::Sim sim;
    osk::PipeInode pipe(sim.events(), /*capacity=*/128);
    pipe.addReader();
    pipe.addWriter();

    // Writer pushes a known sequence in random-sized chunks with
    // random pauses; reader pulls random-sized chunks. FIFO integrity
    // must hold regardless of interleaving.
    const std::size_t total = 4096;
    std::vector<std::uint8_t> sent(total);
    for (std::size_t i = 0; i < total; ++i)
        sent[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::vector<std::uint8_t> received;

    sim.spawn([](sim::Sim &s, osk::PipeInode &p,
                 const std::vector<std::uint8_t> &data, Random &r)
                  -> sim::Task<> {
        std::size_t off = 0;
        while (off < data.size()) {
            const std::size_t n =
                std::min<std::size_t>(r.below(96) + 1,
                                      data.size() - off);
            const osk::IoVec v = osk::IoVec::of(data.data() + off, n);
            const auto wrote = co_await p.writev(&v, 1);
            EXPECT_GT(wrote, 0);
            if (wrote <= 0)
                co_return;
            off += static_cast<std::size_t>(wrote);
            if (r.chance(0.3))
                co_await s.delay(r.below(100) + 1);
        }
        p.closeWriter();
    }(sim, pipe, sent, rng));

    Random rng2(GetParam() + 5);
    sim.spawn([](sim::Sim &s, osk::PipeInode &p,
                 std::vector<std::uint8_t> &out, Random &r)
                  -> sim::Task<> {
        std::uint8_t buf[128];
        for (;;) {
            const osk::IoVec v =
                osk::IoVec::of(buf, r.below(sizeof buf) + 1);
            const auto n = co_await p.readv(&v, 1);
            if (n == 0)
                co_return;
            out.insert(out.end(), buf, buf + n);
            if (r.chance(0.3))
                co_await s.delay(r.below(100) + 1);
        }
    }(sim, pipe, received, rng2));

    sim.run();
    ASSERT_EQ(received.size(), sent.size());
    EXPECT_EQ(received, sent);
}

// ----------------------------------------------------------- wire fuzz

TEST_P(Seeded, McDecodeNeverCrashesOnGarbage)
{
    Random rng(GetParam() * 41 + 17);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> wire(rng.below(64));
        for (auto &b : wire)
            b = static_cast<std::uint8_t>(rng.below(256));
        const auto msg = workloads::mcDecode(wire);
        if (msg.has_value()) {
            // A successful decode must re-encode consistently.
            const auto round = workloads::mcEncode(
                msg->op, msg->key, msg->value);
            EXPECT_EQ(round.size(), wire.size());
        }
    }
}

TEST_P(Seeded, McEncodeDecodeRoundTrip)
{
    Random rng(GetParam() * 3 + 2);
    for (int i = 0; i < 200; ++i) {
        const std::string key = rng.lowerAlpha(rng.below(40));
        std::vector<std::uint8_t> value(rng.below(256));
        for (auto &b : value)
            b = static_cast<std::uint8_t>(rng.below(256));
        const auto wire =
            workloads::mcEncode(workloads::McOp::Set, key, value);
        const auto msg = workloads::mcDecode(wire);
        ASSERT_TRUE(msg.has_value());
        EXPECT_EQ(msg->op, workloads::McOp::Set);
        EXPECT_EQ(msg->key, key);
        EXPECT_EQ(msg->value, value);
    }
}

// ------------------------------------------------------- barrier property

TEST_P(Seeded, BarrierReleasesExactlyTogetherUnderRandomArrivals)
{
    Random rng(GetParam() * 19 + 23);
    sim::Sim sim;
    const std::size_t parties = rng.below(14) + 2;
    sim::Barrier bar(sim.events(), parties);
    std::vector<Tick> out;
    Tick latest_arrival = 0;
    for (std::size_t i = 0; i < parties; ++i) {
        const Tick arrive = rng.below(10000);
        latest_arrival = std::max(latest_arrival, arrive);
        sim.spawn([](sim::Sim &s, sim::Barrier &b, Tick when,
                     std::vector<Tick> &times) -> sim::Task<> {
            co_await s.delay(when);
            co_await b.arriveAndWait();
            times.push_back(s.now());
        }(sim, bar, arrive, out));
    }
    sim.run();
    ASSERT_EQ(out.size(), parties);
    for (Tick t : out)
        EXPECT_EQ(t, latest_arrival);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

} // namespace
} // namespace genesys
