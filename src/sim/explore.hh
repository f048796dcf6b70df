/**
 * @file
 * gmc schedule-space explorer (DESIGN.md §11).
 *
 * A stateless model checker in the CHESS/Verisoft style, layered on the
 * EventQueue's pluggable tie-break policy: a *schedule* is the sequence
 * of choices taken at the points where two or more events were runnable
 * at the same tick. Re-executing the (deterministic) scenario under a
 * prescribed choice prefix replays the run exactly up to the end of the
 * prefix; the explorer enumerates prefixes depth-first so that every
 * distinct same-tick commutation of the scenario is executed exactly
 * once, either exhaustively or bounded by depth/schedule budgets.
 *
 * The explorer is scenario-agnostic: callers provide a RunFn that
 * builds a fresh world, installs the given ScheduleDriver as the
 * tie-break policy, runs to quiescence (or budget), applies its
 * invariant oracles, and returns a RunOutcome. src/core/gmc.cc binds
 * this to the GENESYS slot protocol.
 */

#ifndef GENESYS_SIM_EXPLORE_HH
#define GENESYS_SIM_EXPLORE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "support/types.hh"

namespace genesys::sim::gmc
{

/** Index into a choice point's FIFO-ordered candidate list. */
using Choice = std::uint32_t;

/**
 * A schedule: choice i is taken at the i-th tie point of the run; all
 * points beyond the vector take choice 0 (FIFO). The canonical form
 * has no trailing zeros, so the empty schedule is the FIFO run.
 */
using Schedule = std::vector<Choice>;

/** Compact replay string: "2.0.1" (dot-separated); "fifo" if empty. */
std::string renderSchedule(const Schedule &schedule);

/**
 * Parse renderSchedule() output. @return false on malformed input
 * (anything but dot-separated decimal numbers, "fifo", or "").
 */
bool parseSchedule(const std::string &text, Schedule &out);

/** One tie point observed during a run. */
struct ChoicePoint
{
    /// Runnable events at this point.
    std::size_t candidates = 0;
    /// Index (FIFO order) of the candidate that was run.
    std::size_t chosen = 0;
};

/**
 * The tie-break policy a checked run installs: consumes a prescribed
 * choice prefix (FIFO beyond it) while recording every choice point
 * and counting executed events.
 */
class ScheduleDriver : public TieBreakPolicy
{
  public:
    explicit ScheduleDriver(Schedule prefix)
        : prefix_(std::move(prefix))
    {}

    std::size_t pick(Tick now,
                     const std::vector<TieBreakCandidate> &candidates)
        override;
    void onExecute(EventId, Tick) override { ++events_; }

    const std::vector<ChoicePoint> &points() const { return points_; }
    std::uint64_t events() const { return events_; }
    const Schedule &prefix() const { return prefix_; }

    /** Choices actually taken, trimmed to canonical form. */
    Schedule chosenSchedule() const;

  private:
    Schedule prefix_;
    std::vector<ChoicePoint> points_;
    std::uint64_t events_ = 0;
};

/** What one scheduled execution of the scenario produced. */
struct RunOutcome
{
    bool violation = false;
    std::string kind;   ///< "panic", "gsan", "stuck", "quiescence", ...
    std::string detail; ///< first report / exception text
    /// Scenario-defined fingerprint of the schedule-invariant final
    /// state (results, payload bytes, counters). Compared against the
    /// FIFO reference run by the equivalence oracle.
    std::uint64_t digest = 0;
    Tick endTick = 0;
    std::uint64_t events = 0;
};

/**
 * Execute the scenario once under @p driver's schedule. The callee
 * must build a fresh deterministic world, install the driver via
 * EventQueue::setTieBreaker(), run, and report the outcome.
 */
using RunFn = std::function<RunOutcome(ScheduleDriver &driver)>;

struct ExploreOptions
{
    /// Stop after this many executed schedules (0 = unlimited).
    std::uint64_t maxSchedules = 0;
    /// Expand alternatives only at the first maxDepth choice points of
    /// each run (0 = unlimited).
    std::size_t maxDepth = 0;
    /// Stop after recording this many violating schedules.
    std::size_t maxCounterexamples = 8;
};

struct ExploreStats
{
    std::uint64_t schedulesRun = 0;
    std::uint64_t choicePoints = 0;     ///< total across all runs
    std::uint64_t branchesDeferred = 0; ///< budget-skipped alternatives
    std::uint64_t eventsExecuted = 0;   ///< total across all runs
    /// True iff the schedule space was fully covered: nothing was
    /// budget-skipped and exploration was not stopped early.
    bool exhaustive = true;
};

struct Counterexample
{
    Schedule schedule;
    RunOutcome outcome;
};

struct ExploreResult
{
    ExploreStats stats;
    std::vector<Counterexample> violations;
    RunOutcome reference; ///< outcome of the FIFO (empty) schedule
};

/**
 * Enumerate the scenario's schedule space. The first run executes the
 * FIFO schedule and becomes the equivalence-oracle reference; every
 * later non-violating run whose digest differs is itself reported as a
 * "divergence" violation.
 */
ExploreResult explore(const RunFn &run, const ExploreOptions &options);

/** Re-execute one schedule (counterexample replay). */
RunOutcome replay(const RunFn &run, const Schedule &schedule);

} // namespace genesys::sim::gmc

#endif // GENESYS_SIM_EXPLORE_HH
