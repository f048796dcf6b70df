/**
 * @file
 * gmc schedule-space model checker tests: schedule string round-trips,
 * exhaustive clean verification of the 1-shard × 1-worker configs,
 * seeded protocol mutants (each found with a replayable
 * counterexample), replay determinism, and goldens that pin every
 * scenario family's FIFO run, bounded exploration and first
 * counterexample (tests/golden/gmc_*.txt).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/gmc.hh"
#include "golden.hh"
#include "sim/explore.hh"

// Mutant explorations deliberately produce stuck runs whose suspended
// coroutine frames are reclaimed only by process exit; waive leak
// checking around them so the asan CI job stays green.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GMC_UNDER_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GMC_UNDER_ASAN 1
#endif
#ifdef GMC_UNDER_ASAN
#include <sanitizer/lsan_interface.h>
#endif

namespace
{

using namespace genesys;
using core::Blocking;
using core::Granularity;
using core::Ordering;
using core::WaitMode;
using core::gmc::etNetScenario;
using core::gmc::McConfig;
using core::gmc::netScenario;
using core::gmc::scenario;
using sim::gmc::explore;
using sim::gmc::ExploreOptions;
using sim::gmc::ExploreResult;
using sim::gmc::replay;
using sim::gmc::RunOutcome;
using sim::gmc::Schedule;

struct LeakWaiver
{
    LeakWaiver()
    {
#ifdef GMC_UNDER_ASAN
        __lsan_disable();
#endif
    }
    ~LeakWaiver()
    {
#ifdef GMC_UNDER_ASAN
        __lsan_enable();
#endif
    }
};

McConfig
baseConfig(Granularity g, WaitMode wait)
{
    McConfig mc;
    mc.granularity = g;
    mc.ordering = Ordering::Strong;
    mc.blocking = Blocking::Blocking;
    mc.wait = wait;
    mc.areaShards = 1;
    mc.workers = 1;
    mc.groups = 1;
    return mc;
}

// ------------------------------------------------- schedule strings

TEST(GmcSchedule, RenderAndParseRoundTrip)
{
    EXPECT_EQ(sim::gmc::renderSchedule({}), "fifo");
    EXPECT_EQ(sim::gmc::renderSchedule({2, 0, 1}), "2.0.1");

    Schedule s;
    EXPECT_TRUE(sim::gmc::parseSchedule("fifo", s));
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(sim::gmc::parseSchedule("", s));
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(sim::gmc::parseSchedule("2.0.1", s));
    EXPECT_EQ(s, (Schedule{2, 0, 1}));
    // Trailing zeros are implied FIFO choices: canonicalized away.
    EXPECT_TRUE(sim::gmc::parseSchedule("1.0.0", s));
    EXPECT_EQ(s, (Schedule{1}));

    EXPECT_FALSE(sim::gmc::parseSchedule("1..2", s));
    EXPECT_FALSE(sim::gmc::parseSchedule(".1", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("1.", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("1.x", s));
    EXPECT_FALSE(sim::gmc::parseSchedule("99999999999", s));
}

TEST(GmcSchedule, ConfigNamesAreUniqueAndLookupWorks)
{
    const auto matrix = core::gmc::smallMatrix();
    ASSERT_FALSE(matrix.empty());
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        for (std::size_t j = i + 1; j < matrix.size(); ++j)
            EXPECT_NE(matrix[i].name(), matrix[j].name());
    }
    const McConfig *mc =
        core::gmc::configByName(matrix, matrix.front().name());
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->name(), matrix.front().name());
    EXPECT_EQ(core::gmc::configByName(matrix, "no-such-config"),
              nullptr);
}

// ------------------------------------------------ clean exploration

TEST(GmcClean, FifoRunIsDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = replay(scenario(mc), {});
    const RunOutcome b = replay(scenario(mc), {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcClean, WorkItemOneShardExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkItem, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, WorkGroupOneShardExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, WorkGroupHaltResumeExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    const ExploreResult r = core::gmc::exploreConfig(mc, {});
    EXPECT_TRUE(r.stats.exhaustive);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcClean, BoundedExplorationReportsNonExhaustive)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    ExploreOptions opts;
    opts.maxSchedules = 2;
    const ExploreResult r = core::gmc::exploreConfig(mc, opts);
    EXPECT_LE(r.stats.schedulesRun, 2u);
    EXPECT_FALSE(r.stats.exhaustive);
}

// ------------------------------------------------- seeded mutants

/** Explore @p mc expecting at least one violation of kind @p kind,
 *  then re-execute the counterexample schedule twice and require the
 *  identical outcome (replayability + determinism). */
void
expectMutantCaught(McConfig mc, const char *kind)
{
    LeakWaiver waiver;
    ExploreOptions opts;
    opts.maxCounterexamples = 1;
    const ExploreResult r = core::gmc::exploreConfig(mc, opts);
    ASSERT_FALSE(r.violations.empty())
        << mc.name() << ": mutant not found";
    const auto &cx = r.violations.front();
    EXPECT_EQ(cx.outcome.kind, kind)
        << "schedule " << sim::gmc::renderSchedule(cx.schedule) << ": "
        << cx.outcome.detail;

    const RunOutcome once = replay(scenario(mc), cx.schedule);
    const RunOutcome twice = replay(scenario(mc), cx.schedule);
    EXPECT_TRUE(once.violation);
    EXPECT_EQ(once.kind, cx.outcome.kind);
    EXPECT_EQ(once.kind, twice.kind);
    EXPECT_EQ(once.detail, twice.detail);
    EXPECT_EQ(once.endTick, twice.endTick);
    EXPECT_EQ(once.events, twice.events);
}

TEST(GmcMutant, DoorbellBeforePublishStrandsRequest)
{
    // FIFO hides this bug: the publish's zero-latency continuation
    // drains before the doorbell's multi-hop delivery. gmc must find
    // an adversarial order that services the still-Populating slot.
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.hooks.doorbellBeforePublish = true;

    // First confirm FIFO really is blind to it — the whole reason a
    // model checker is needed.
    {
        LeakWaiver waiver;
        const RunOutcome fifo = replay(scenario(mc), {});
        EXPECT_FALSE(fifo.violation)
            << "FIFO already catches it: " << fifo.kind;
    }
    expectMutantCaught(mc, "stuck");
}

TEST(GmcMutant, WakeBeforeCompleteLosesWakeup)
{
    McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    mc.hooks.wakeBeforeComplete = true;
    expectMutantCaught(mc, "stuck");
}

TEST(GmcMutant, SkipPostBarrierTripsGsan)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.hooks.skipPostBarrier = true;
    expectMutantCaught(mc, "gsan");
}

TEST(GmcReplay, OutOfRangeChoiceReportsPanic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    // No tie point in this scenario has 1000 candidates.
    const RunOutcome out = replay(scenario(mc), {999});
    EXPECT_TRUE(out.violation);
    EXPECT_EQ(out.kind, "panic");
}

// ------------------------------------------- gnet echo exploration

TEST(GmcNet, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = replay(netScenario(mc), {});
    const RunOutcome b = replay(netScenario(mc), {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcNet, PollingBoundedExplorationIsClean)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    // The net scenario's schedule space is far larger than the pwrite
    // scenario's (wire deliveries and readiness callbacks add tie
    // points), so CI explores a bounded prefix rather than the full
    // space. Every explored schedule must still pass all oracles.
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = explore(netScenario(mc), opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcNet, HaltResumeBoundedExplorationIsClean)
{
    // Halt/resume is where a lost epoll wake-up would strand the
    // server wave: a "stuck" or gsan violation on any schedule here
    // is a real wake/halt race in the readiness path.
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = explore(netScenario(mc), opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

// --------------------------------- edge-triggered gnet exploration

TEST(GmcEtNet, NameCarriesLostEdgeSuffix)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const std::string plain = mc.name();
    mc.lostEdge = true;
    EXPECT_EQ(mc.name(), plain + "-etlost");
}

TEST(GmcEtNet, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = replay(etNetScenario(mc), {});
    const RunOutcome b = replay(etNetScenario(mc), {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
}

TEST(GmcEtNet, PollingBoundedExplorationIsClean)
{
    // Like the LT net scenario, the schedule space is too large for
    // exhaustive CI exploration; every explored schedule must still
    // pass all oracles — in particular, no reordering of wire
    // deliveries against the drain loop may lose a readiness edge.
    const McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    ExploreOptions opts;
    opts.maxSchedules = 24;
    opts.maxDepth = 12;
    const ExploreResult r = explore(etNetScenario(mc), opts);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ET net schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcEtNet, LostEdgeMutantStrandsServer)
{
    // The seeded mutant observes the connection's first readable
    // transition but never latches it as pending. Under strict ET no
    // later send can re-derive the edge (data arriving on a non-empty
    // chain is not a transition), so the server sleeps in epoll_wait
    // and the client blocks on its echo. Unlike the slot-protocol
    // mutants this drop is not a reordering — it fires on every
    // schedule — so the value here is the oracle coverage and the
    // replayable counterexample, exercised in the halt/resume wait
    // mode where a lost readiness edge really does strand the wave.
    LeakWaiver waiver;
    McConfig mc =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    mc.lostEdge = true;
    ExploreOptions opts;
    opts.maxCounterexamples = 1;
    const ExploreResult r = explore(etNetScenario(mc), opts);
    ASSERT_FALSE(r.violations.empty())
        << mc.name() << ": lost-edge mutant not found";
    const auto &cx = r.violations.front();
    EXPECT_EQ(cx.outcome.kind, "stuck")
        << "schedule " << sim::gmc::renderSchedule(cx.schedule) << ": "
        << cx.outcome.detail;

    const RunOutcome once = replay(etNetScenario(mc), cx.schedule);
    const RunOutcome twice =
        replay(etNetScenario(mc), cx.schedule);
    EXPECT_TRUE(once.violation);
    EXPECT_EQ(once.kind, cx.outcome.kind);
    EXPECT_EQ(once.kind, twice.kind);
    EXPECT_EQ(once.detail, twice.detail);
    EXPECT_EQ(once.endTick, twice.endTick);
    EXPECT_EQ(once.events, twice.events);
}

// --------------------------------------- SQ/CQ ring exploration

/** baseConfig() with SQ/CQ ring submission on. */
McConfig
ringConfig(Granularity g, WaitMode wait)
{
    McConfig mc = baseConfig(g, wait);
    mc.useRings = true;
    return mc;
}

TEST(GmcRing, NameCarriesRingSuffix)
{
    McConfig mc = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const std::string plain = mc.name();
    mc.useRings = true;
    mc.ringEntries = 4;
    EXPECT_EQ(mc.name(), plain + "-ring4");
}

TEST(GmcRing, FifoRunIsCleanAndDeterministic)
{
    const McConfig mc =
        ringConfig(Granularity::WorkGroup, WaitMode::Polling);
    const RunOutcome a = replay(scenario(mc), {});
    const RunOutcome b = replay(scenario(mc), {});
    EXPECT_FALSE(a.violation) << a.kind << ": " << a.detail;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
    // Ring submission changes the event structure, so the digest must
    // differ from the slot-doorbell run of the same config — proof the
    // scenario actually went through the rings.
    const RunOutcome slots = replay(
        scenario(baseConfig(Granularity::WorkGroup, WaitMode::Polling)),
        {});
    EXPECT_NE(a.digest, slots.digest);
}

TEST(GmcRing, WorkGroupOneShardExhaustive)
{
    const McConfig mc =
        ringConfig(Granularity::WorkGroup, WaitMode::Polling);
    const ExploreResult r = explore(scenario(mc), {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ring schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcRing, WorkItemOneShardExhaustive)
{
    // Work-item granularity submits wavefront-sized batches through
    // the single-entry model ring, so every chunk exercises the
    // SQ-full claim-retry path and the multi-batch doorbell decision.
    const McConfig mc =
        ringConfig(Granularity::WorkItem, WaitMode::Polling);
    const ExploreResult r = explore(scenario(mc), {});
    EXPECT_TRUE(r.stats.exhaustive);
    EXPECT_GT(r.stats.schedulesRun, 1u);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << mc.name() << " ring schedule "
                      << sim::gmc::renderSchedule(v.schedule) << ": "
                      << v.outcome.kind << " — " << v.outcome.detail;
    }
}

TEST(GmcRingMutant, DroppedDoorbellStrandsBatch)
{
    // The mutant samples SQ occupancy once at chunk start and skips
    // the doorbell whenever the ring looked non-empty. With chunked
    // work-item submission the consumer can drain the sampled entries
    // and go idle before the next chunk publishes — that chunk's
    // doorbell is the only wake-up, and it never rings.
    McConfig mc = ringConfig(Granularity::WorkItem, WaitMode::Polling);
    mc.hooks.ringDropDoorbell = true;
    expectMutantCaught(mc, "stuck");
}

TEST(GmcRingMutant, CompletionBeforePublishStrandsWaiter)
{
    // The mutant posts the CQE and yields before servicing the entry.
    // FIFO hides it (the service continuation runs before the waiter's
    // next poll); gmc must find the order where the waiter observes
    // the tail advance, re-sweeps a still-unfinished slot, and then
    // elides every later sweep because the tail never moves again.
    McConfig mc = ringConfig(Granularity::WorkGroup, WaitMode::Polling);
    mc.hooks.ringCompleteBeforePublish = true;

    {
        LeakWaiver waiver;
        const RunOutcome fifo = replay(scenario(mc), {});
        EXPECT_FALSE(fifo.violation)
            << "FIFO already catches it: " << fifo.kind;
    }
    expectMutantCaught(mc, "stuck");
}

TEST(GmcRingMutant, StaleHeadReadSpinsOnFullRing)
{
    // The mutant never refreshes its observed head across claim
    // retries. The second chunk of a work-item batch finds the
    // single-entry ring full, and — with the head observation frozen
    // before the consumer's pop — retries forever on a ring that is
    // actually empty.
    McConfig mc = ringConfig(Granularity::WorkItem, WaitMode::Polling);
    mc.hooks.ringStaleHead = true;
    expectMutantCaught(mc, "stuck");
}

// ------------------------------------------------------- goldens

/** A golden config: @p label names the seeded mutant ("clean" if
 *  none), since McConfig::name() does not carry the hooks. */
struct GoldenCase
{
    const char *label;
    McConfig mc;
};

/** First line of @p text (gsan details span several). */
std::string
firstLine(const std::string &text)
{
    return text.substr(0, text.find('\n'));
}

/**
 * One config's golden record: the FIFO run's outcome, then a bounded
 * exploration (64 schedules, stopping at the first counterexample)
 * with its statistics and its first counterexample.
 */
std::string
goldenRecord(const GoldenCase &c, const sim::gmc::RunFn &run)
{
    LeakWaiver waiver;
    char line[256];
    std::string out = c.mc.name() + " " + c.label + "\n";

    const RunOutcome fifo = replay(run, {});
    std::snprintf(line, sizeof line,
                  "  fifo %s digest=%016llx events=%llu endTick=%llu\n",
                  fifo.violation ? fifo.kind.c_str() : "clean",
                  static_cast<unsigned long long>(fifo.digest),
                  static_cast<unsigned long long>(fifo.events),
                  static_cast<unsigned long long>(fifo.endTick));
    out += line;

    ExploreOptions opts;
    opts.maxSchedules = 64;
    opts.maxCounterexamples = 1;
    const ExploreResult r = explore(run, opts);
    std::snprintf(
        line, sizeof line,
        "  explore schedules=%llu choicePoints=%llu events=%llu "
        "deferred=%llu exhaustive=%s\n",
        static_cast<unsigned long long>(r.stats.schedulesRun),
        static_cast<unsigned long long>(r.stats.choicePoints),
        static_cast<unsigned long long>(r.stats.eventsExecuted),
        static_cast<unsigned long long>(r.stats.branchesDeferred),
        r.stats.exhaustive ? "yes" : "no");
    out += line;

    if (r.violations.empty())
        return out + "  counterexample none\n";
    const auto &cx = r.violations.front();
    return out + "  counterexample " +
           sim::gmc::renderSchedule(cx.schedule) + " " +
           cx.outcome.kind + ": " + firstLine(cx.outcome.detail) + "\n";
}

TEST(GmcGolden, SlotScenario)
{
    const McConfig wgPoll =
        baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    const McConfig wgHalt =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    std::vector<GoldenCase> cases = {
        {"clean", wgPoll},
        {"clean", wgHalt},
        {"clean", baseConfig(Granularity::WorkItem, WaitMode::Polling)},
    };
    McConfig kernel = baseConfig(Granularity::Kernel, WaitMode::Polling);
    kernel.ordering = Ordering::Relaxed;
    cases.push_back({"clean", kernel});
    McConfig sharded = wgHalt;
    sharded.areaShards = 2;
    sharded.workers = 2;
    sharded.groups = 2;
    cases.push_back({"clean", sharded});

    cases.push_back({"doorbellBeforePublish", wgPoll});
    cases.back().mc.hooks.doorbellBeforePublish = true;
    cases.push_back({"wakeBeforeComplete", wgHalt});
    cases.back().mc.hooks.wakeBeforeComplete = true;
    cases.push_back({"skipPostBarrier", wgPoll});
    cases.back().mc.hooks.skipPostBarrier = true;

    std::string out;
    for (const GoldenCase &c : cases)
        out += goldenRecord(c, scenario(c.mc));
    expectGolden("gmc_slot.txt", out);
}

TEST(GmcGolden, RingScenario)
{
    McConfig wg = baseConfig(Granularity::WorkGroup, WaitMode::Polling);
    McConfig wi = baseConfig(Granularity::WorkItem, WaitMode::Polling);
    wg.useRings = true;
    wi.useRings = true;
    std::vector<GoldenCase> cases = {{"clean", wg}, {"clean", wi}};
    cases.push_back({"ringDropDoorbell", wi});
    cases.back().mc.hooks.ringDropDoorbell = true;
    cases.push_back({"ringCompleteBeforePublish", wg});
    cases.back().mc.hooks.ringCompleteBeforePublish = true;
    cases.push_back({"ringStaleHead", wi});
    cases.back().mc.hooks.ringStaleHead = true;

    std::string out;
    for (const GoldenCase &c : cases)
        out += goldenRecord(c, scenario(c.mc));
    expectGolden("gmc_ring.txt", out);
}

TEST(GmcGolden, LevelTriggeredEchoScenario)
{
    std::string out;
    for (const WaitMode wait : {WaitMode::Polling, WaitMode::HaltResume}) {
        const GoldenCase c{"clean",
                           baseConfig(Granularity::WorkGroup, wait)};
        out += goldenRecord(c, netScenario(c.mc));
    }
    expectGolden("gmc_lt_echo.txt", out);
}

TEST(GmcGolden, EdgeTriggeredEchoScenario)
{
    const McConfig wgHalt =
        baseConfig(Granularity::WorkGroup, WaitMode::HaltResume);
    std::vector<GoldenCase> cases = {
        {"clean", baseConfig(Granularity::WorkGroup, WaitMode::Polling)},
        {"clean", wgHalt},
        {"lostEdge", wgHalt},
    };
    cases.back().mc.lostEdge = true;

    std::string out;
    for (const GoldenCase &c : cases)
        out += goldenRecord(c, etNetScenario(c.mc));
    expectGolden("gmc_et_echo.txt", out);
}

} // namespace
