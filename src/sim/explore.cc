/**
 * @file
 * gmc schedule-space explorer implementation.
 */

#include "explore.hh"

#include <utility>

#include "support/logging.hh"

namespace genesys::sim::gmc
{

using logging::format;

std::string
renderSchedule(const Schedule &schedule)
{
    if (schedule.empty())
        return "fifo";
    std::string out;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (i > 0)
            out += '.';
        out += std::to_string(schedule[i]);
    }
    return out;
}

bool
parseSchedule(const std::string &text, Schedule &out)
{
    out.clear();
    if (text.empty() || text == "fifo")
        return true;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('.', pos);
        if (end == std::string::npos)
            end = text.size();
        if (end == pos)
            return false; // empty component ("1..2", ".1", "1.")
        std::uint64_t value = 0;
        for (std::size_t i = pos; i < end; ++i) {
            const char c = text[i];
            if (c < '0' || c > '9')
                return false;
            value = value * 10 + static_cast<std::uint64_t>(c - '0');
            if (value > 0xFFFF'FFFFull)
                return false;
        }
        out.push_back(static_cast<Choice>(value));
        pos = end + 1;
    }
    if (text.back() == '.')
        return false;
    // Canonicalize: trailing zeros are implied FIFO choices.
    while (!out.empty() && out.back() == 0)
        out.pop_back();
    return true;
}

std::size_t
ScheduleDriver::pick(Tick now,
                     const std::vector<TieBreakCandidate> &candidates)
{
    (void)now;
    const std::size_t point = points_.size();
    std::size_t chosen = 0;
    if (point < prefix_.size()) {
        chosen = prefix_[point];
        if (chosen >= candidates.size()) {
            panic("gmc replay: choice %zu at point %zu out of range "
                  "(%zu candidates) — schedule is not from this "
                  "scenario/config",
                  chosen, point, candidates.size());
        }
    }
    points_.push_back(ChoicePoint{candidates.size(), chosen});
    return chosen;
}

Schedule
ScheduleDriver::chosenSchedule() const
{
    Schedule out;
    out.reserve(points_.size());
    for (const ChoicePoint &cp : points_)
        out.push_back(static_cast<Choice>(cp.chosen));
    while (!out.empty() && out.back() == 0)
        out.pop_back();
    return out;
}

ExploreResult
explore(const RunFn &run, const ExploreOptions &options)
{
    ExploreResult result;
    std::vector<Schedule> work;
    work.push_back(Schedule{});
    bool first = true;
    bool stopped = false;

    while (!work.empty() && !stopped) {
        Schedule prefix = std::move(work.back());
        work.pop_back();

        ScheduleDriver driver(std::move(prefix));
        RunOutcome outcome = run(driver);
        ++result.stats.schedulesRun;
        result.stats.choicePoints += driver.points().size();
        result.stats.eventsExecuted += driver.events();

        if (first) {
            result.reference = outcome;
            first = false;
        } else if (!outcome.violation && !result.reference.violation &&
                   outcome.digest != result.reference.digest) {
            outcome.violation = true;
            outcome.kind = "divergence";
            outcome.detail = format(
                "final state digest %016llx differs from the FIFO "
                "reference %016llx (results must be schedule-invariant)",
                static_cast<unsigned long long>(outcome.digest),
                static_cast<unsigned long long>(
                    result.reference.digest));
        }
        if (outcome.violation) {
            result.violations.push_back(
                Counterexample{driver.chosenSchedule(), outcome});
            if (result.violations.size() >=
                options.maxCounterexamples) {
                result.stats.exhaustive = false;
                break;
            }
        }

        // Expand alternatives at every point this run decided freely
        // (points inside the prefix were prescribed, and are expanded
        // by the run that created the prefix). Each schedule in
        // canonical form is generated exactly once: from the run whose
        // prefix is the schedule minus its trailing [0...0, c] tail.
        const std::size_t prefixLen = driver.prefix().size();
        for (std::size_t point = prefixLen;
             point < driver.points().size(); ++point) {
            if (options.maxDepth != 0 && point >= options.maxDepth) {
                for (std::size_t p = point;
                     p < driver.points().size(); ++p) {
                    result.stats.branchesDeferred +=
                        driver.points()[p].candidates - 1;
                }
                result.stats.exhaustive = false;
                break;
            }
            const ChoicePoint &cp = driver.points()[point];
            for (std::size_t alt = 1; alt < cp.candidates; ++alt) {
                Schedule next;
                next.reserve(point + 1);
                for (std::size_t p = 0; p < point; ++p) {
                    next.push_back(static_cast<Choice>(
                        driver.points()[p].chosen));
                }
                next.push_back(static_cast<Choice>(alt));
                work.push_back(std::move(next));
            }
        }

        if (options.maxSchedules != 0 &&
            result.stats.schedulesRun >= options.maxSchedules &&
            !work.empty()) {
            result.stats.exhaustive = false;
            stopped = true;
        }
    }
    return result;
}

RunOutcome
replay(const RunFn &run, const Schedule &schedule)
{
    ScheduleDriver driver(schedule);
    return run(driver);
}

} // namespace genesys::sim::gmc
