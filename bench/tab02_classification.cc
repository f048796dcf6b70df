/**
 * @file
 * Table II: classification of all Linux system calls by GPU
 * implementability — the 79% / 13% / 8% split of Section IV plus the
 * example rows of Table II with their reasons.
 */

#include "bench/common.hh"
#include "osk/classification.hh"

using namespace genesys;
using namespace genesys::bench;
using namespace genesys::osk;

int
main()
{
    banner("Table II",
           "Linux system-call census: readily-implementable vs "
           "needs-GPU-hardware-changes vs extensive-modification");

    const CensusCounts counts = censusCounts();
    TextTable split("Census split (paper: 79% / 13% / 8%)");
    split.setHeader({"class", "count", "fraction"});
    split.addRow({"readily-implementable",
                  logging::format("%zu", counts.readily),
                  logging::format("%.1f%%",
                                  100.0 * counts.fraction(counts.readily))});
    split.addRow({"needs-GPU-hardware-changes",
                  logging::format("%zu", counts.needsHw),
                  logging::format("%.1f%%",
                                  100.0 * counts.fraction(counts.needsHw))});
    split.addRow({"extensive-modification",
                  logging::format("%zu", counts.extensive),
                  logging::format("%.1f%%",
                                  100.0 *
                                      counts.fraction(counts.extensive))});
    split.addRow({"total", logging::format("%zu", counts.total), ""});
    std::printf("%s\n", split.render().c_str());

    TextTable examples("Table II: syscalls requiring hardware changes");
    examples.setHeader({"type", "examples", "reason"});
    // Group the needs-HW entries by type, as the paper's table does.
    const auto hw = entriesOf(SyscallClass::NeedsHardwareChanges);
    std::map<std::string, std::pair<std::string, std::string>> by_type;
    for (const auto &e : hw) {
        auto &[names, reason] = by_type[typeName(e.type)];
        reason = reasonText(e.reason);
        if (names.ends_with("..."))
            continue; // already elided
        if (!names.empty())
            names += ", ";
        if (names.size() < 48)
            names += e.name;
        else
            names += "...";
    }
    for (const auto &[type, v] : by_type)
        examples.addRow({type, v.first, v.second});
    std::printf("%s\n", examples.render().c_str());

    std::printf("GENESYS proof-of-concept implements %zu calls, the "
                "paper's 14 among them; every one is in the "
                "readily-implementable class.\n",
                counts.implemented);
    return 0;
}
