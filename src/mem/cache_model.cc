/**
 * @file
 * CacheModel implementation.
 */

#include "cache_model.hh"

#include <algorithm>

#include "support/logging.hh"

namespace genesys::mem
{

CacheModel::CacheModel(const CacheParams &params)
    : lineBytes_(params.lineBytes), assoc_(params.associativity)
{
    GENESYS_ASSERT(params.lineBytes > 0 && params.associativity > 0,
                   "bad cache geometry");
    const std::uint64_t lines = params.sizeBytes / params.lineBytes;
    GENESYS_ASSERT(lines >= assoc_, "cache smaller than one set");
    numSets_ = lines / assoc_;
    tags_.resize(numSets_ * assoc_);
    fill_.resize(numSets_);
}

bool
CacheModel::access(Addr addr)
{
    const Addr line = addr / lineBytes_;
    const std::uint64_t set = setIndex(line);
    Addr *ways = &tags_[set * assoc_];
    std::uint32_t &fill = fill_[set];
    Addr *it = std::find(ways, ways + fill, line);
    if (it != ways + fill) {
        std::rotate(ways, it, it + 1);
        ++hits_;
        return true;
    }
    ++misses_;
    // A full set drops its least recently used tag off the end.
    if (fill < assoc_)
        ++fill;
    std::copy_backward(ways, ways + fill - 1, ways + fill);
    ways[0] = line;
    return false;
}

void
CacheModel::flushAll()
{
    std::fill(fill_.begin(), fill_.end(), 0);
}

void
CacheModel::invalidate(Addr addr)
{
    const Addr line = addr / lineBytes_;
    const std::uint64_t set = setIndex(line);
    Addr *ways = &tags_[set * assoc_];
    std::uint32_t &fill = fill_[set];
    Addr *it = std::find(ways, ways + fill, line);
    if (it != ways + fill) {
        std::copy(it + 1, ways + fill, it);
        --fill;
    }
}

} // namespace genesys::mem
