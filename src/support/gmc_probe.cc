/**
 * @file
 * gmc slot probe implementation.
 */

#include "gmc_probe.hh"

#include <algorithm>

namespace genesys::gmc
{

Probe &
Probe::instance()
{
    static Probe probe;
    return probe;
}

std::vector<ProbeKey>
Probe::drain()
{
    std::vector<ProbeKey> out = std::move(buf_);
    buf_.clear();
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace genesys::gmc
