/**
 * @file
 * Census of Linux system calls classified by GPU implementability.
 *
 * Section IV of the paper classifies all of Linux's 300+ system calls
 * into three groups:
 *  1. readily implementable          (~79%)
 *  2. needs GPU hardware changes     (~13%)  -- Table II
 *  3. requires extensive OS surgery   (~8%)
 *
 * The census itself is the syscall table (syscall_table.hh, Linux
 * 4.11-era x86-64), which gives every non-readily row a reason. This
 * module holds the aggregation and naming helpers used by the Table II
 * reproduction and tests.
 */

#ifndef GENESYS_OSK_CLASSIFICATION_HH
#define GENESYS_OSK_CLASSIFICATION_HH

#include <cstddef>
#include <vector>

#include "osk/syscall_table.hh"

namespace genesys::osk
{

struct CensusCounts
{
    std::size_t total = 0;
    std::size_t readily = 0;
    std::size_t needsHw = 0;
    std::size_t extensive = 0;
    /// Rows with a handler: the calls GENESYS implements.
    std::size_t implemented = 0;

    double
    fraction(std::size_t part) const
    {
        return total == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(total);
    }
};

CensusCounts censusCounts();

/** Rows in a class, in census order, for printing Table II. */
std::vector<SyscallRow> entriesOf(SyscallClass cls);

/** Table II's "Type" text, e.g. "thread scheduling". */
const char *typeName(SyscallType type);
/** Why a call is not readily implementable; "" for None. */
const char *reasonText(SyscallReason reason);

} // namespace genesys::osk

#endif // GENESYS_OSK_CLASSIFICATION_HH
