/**
 * @file
 * Census aggregation and the Table II texts of the syscall table's
 * type and reason columns.
 */

#include "classification.hh"

#include <iterator>

namespace genesys::osk
{

CensusCounts
censusCounts()
{
    CensusCounts c;
    for (const SyscallRow &r : kSyscallTable) {
        ++c.total;
        if (r.implemented())
            ++c.implemented;
        switch (r.cls) {
          case SyscallClass::ReadilyImplementable:
            ++c.readily;
            break;
          case SyscallClass::NeedsHardwareChanges:
            ++c.needsHw;
            break;
          case SyscallClass::ExtensiveModification:
            ++c.extensive;
            break;
        }
    }
    return c;
}

std::vector<SyscallRow>
entriesOf(SyscallClass cls)
{
    std::vector<SyscallRow> out;
    for (const SyscallRow &r : kSyscallTable) {
        if (r.cls == cls)
            out.push_back(r);
    }
    return out;
}

const char *
typeName(SyscallType type)
{
    // In SyscallType's order.
    constexpr const char *kNames[] = {
        "filesystem",
        "async I/O & events",
        "memory management",
        "IPC",
        "network",
        "identity",
        "time",
        "signals",
        "resource & control",
        "capabilities",
        "namespace",
        "policies",
        "thread scheduling",
        "thread identity/sync",
        "architecture specific",
        "process lifecycle",
        "system administration",
    };
    static_assert(std::size(kNames) ==
                  1 + static_cast<std::size_t>(
                          SyscallType::SystemAdministration));
    return kNames[static_cast<std::size_t>(type)];
}

const char *
reasonText(SyscallReason reason)
{
    // In SyscallReason's order.
    constexpr const char *kTexts[] = {
        "",
        "needs GPU thread representation in the kernel",
        "needs better control over the GPU scheduler",
        "cannot pause/resume or retarget individual GPU work-item PCs",
        "not accessible from GPU",
        "would clone/replace whole-GPU execution state",
        "administrative path; no GPU execution context to apply it to",
    };
    static_assert(std::size(kTexts) ==
                  1 + static_cast<std::size_t>(SyscallReason::AdminPath));
    return kTexts[static_cast<std::size_t>(reason)];
}

} // namespace genesys::osk
