/**
 * @file
 * Ablation: gmc schedule-space model checker over the slot protocol.
 *
 * Sweeps the design-space matrix (granularity × ordering × blocking ×
 * wait × shards × workers × groups) from core::gmc::smallMatrix().
 * Single-actor configs (1 shard × 1 worker × 1 group) are enumerated
 * exhaustively; multi-actor configs run the first 512 schedules of the
 * same depth-first search. Per config the table reports schedules
 * run, tie points, events, wall time, and schedules/second.
 *
 * Any oracle violation on these (clean, unmutated) configs is a real
 * schedule-dependent protocol bug or oracle false positive: the binary
 * exits nonzero so CI fails.
 *
 * Usage:
 *   abl_gmc                           sweep every config
 *   abl_gmc --gmc-replay=<cfg>:<sch>  replay one schedule, e.g.
 *       --gmc-replay=wg-strong-block-poll-1x1g1:0.0.0.0.0.1.1.1
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hh"
#include "core/gmc.hh"
#include "sim/explore.hh"
#include "support/table.hh"

using namespace genesys;
using namespace genesys::bench;

namespace
{

bool
isSingleActor(const core::gmc::McConfig &mc)
{
    return mc.areaShards == 1 && mc.workers == 1 && mc.groups == 1;
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int
replayOne(const std::string &spec)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "--gmc-replay wants <config>:<schedule>\n");
        return 2;
    }
    const std::string cfgName = spec.substr(0, colon);
    sim::gmc::Schedule schedule;
    if (!sim::gmc::parseSchedule(spec.substr(colon + 1), schedule)) {
        std::fprintf(stderr, "malformed schedule string '%s'\n",
                     spec.substr(colon + 1).c_str());
        return 2;
    }
    const auto matrix = core::gmc::smallMatrix();
    const core::gmc::McConfig *mc =
        core::gmc::configByName(matrix, cfgName);
    if (mc == nullptr) {
        std::fprintf(stderr, "unknown config '%s'; known:\n",
                     cfgName.c_str());
        for (const auto &m : matrix)
            std::fprintf(stderr, "  %s\n", m.name().c_str());
        return 2;
    }
    const sim::gmc::RunOutcome out =
        sim::gmc::replay(core::gmc::scenario(*mc), schedule);
    std::printf("%s schedule %s: %s\n", cfgName.c_str(),
                sim::gmc::renderSchedule(schedule).c_str(),
                out.violation ? out.kind.c_str() : "clean");
    if (out.violation)
        std::printf("  %s\n", out.detail.c_str());
    std::printf("  digest %016llx, end tick %llu, %llu events\n",
                static_cast<unsigned long long>(out.digest),
                static_cast<unsigned long long>(out.endTick),
                static_cast<unsigned long long>(out.events));
    return out.violation ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--gmc-replay=", 13) == 0)
            return replayOne(argv[i] + 13);
        std::fprintf(stderr,
                     "usage: %s [--gmc-replay=<config>:<schedule>]\n",
                     argv[0]);
        return 2;
    }

    banner("abl_gmc",
           "schedule-space model checking of the slot protocol "
           "(exhaustive on single-actor configs, bounded beyond)");

    TextTable table("gmc sweep");
    table.setHeader({"config", "mode", "schedules", "tie points",
                     "events", "exhaustive", "violations", "wall ms",
                     "sched/s"});

    bool cleanTreeViolated = false;
    std::uint64_t totalSchedules = 0;
    double totalMs = 0.0;

    for (const core::gmc::McConfig &mc : core::gmc::smallMatrix()) {
        const bool exhaustive = isSingleActor(mc);
        sim::gmc::ExploreOptions opts;
        if (!exhaustive) {
            // Multi-actor schedule spaces explode; bound the sweep,
            // so coverage here is best-effort (exhaustive=false).
            opts.maxSchedules = 512;
        }

        const auto t0 = std::chrono::steady_clock::now();
        const sim::gmc::ExploreResult r =
            core::gmc::exploreConfig(mc, opts);
        const double ms = wallMsSince(t0);
        totalSchedules += r.stats.schedulesRun;
        totalMs += ms;

        char schedPerSec[32];
        std::snprintf(schedPerSec, sizeof schedPerSec, "%.0f",
                      ms > 0.0 ? r.stats.schedulesRun * 1000.0 / ms
                               : 0.0);
        char wallMs[32];
        std::snprintf(wallMs, sizeof wallMs, "%.1f", ms);
        table.addRow(
            {mc.name(), exhaustive ? "exhaustive" : "bounded",
             std::to_string(r.stats.schedulesRun),
             std::to_string(r.stats.choicePoints),
             std::to_string(r.stats.eventsExecuted),
             r.stats.exhaustive ? "yes" : "no",
             std::to_string(r.violations.size()), wallMs,
             schedPerSec});

        for (const auto &v : r.violations) {
            cleanTreeViolated = true;
            std::printf("VIOLATION %s schedule %s: %s — %s\n",
                        mc.name().c_str(),
                        sim::gmc::renderSchedule(v.schedule).c_str(),
                        v.outcome.kind.c_str(),
                        v.outcome.detail.c_str());
        }
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("total: %llu schedules in %.1f ms (%.0f sched/s)\n",
                static_cast<unsigned long long>(totalSchedules),
                totalMs,
                totalMs > 0.0 ? totalSchedules * 1000.0 / totalMs
                              : 0.0);

    if (cleanTreeViolated) {
        std::printf("\nFAIL: oracle violation on an unmutated "
                    "config\n");
        return 1;
    }
    std::printf("\nall configs clean\n");
    return 0;
}
