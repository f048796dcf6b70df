/**
 * @file
 * Statistics package implementation.
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace genesys::stats
{

double
Distribution::sum() const
{
    double s = 0.0;
    for (double v : samples_)
        s += v;
    return s;
}

double
Distribution::mean() const
{
    return samples_.empty() ? 0.0
                            : sum() / static_cast<double>(samples_.size());
}

double
Distribution::stdev() const
{
    const std::size_t n = samples_.size();
    if (n < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double v : samples_)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(n - 1));
}

double
Distribution::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Distribution::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

void
Distribution::ensureSorted() const
{
    if (sorted_)
        return;
    sorted_samples_ = samples_;
    std::sort(sorted_samples_.begin(), sorted_samples_.end());
    sorted_ = true;
}

double
Distribution::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile %f out of range", p);
    ensureSorted();
    const double rank =
        p / 100.0 * static_cast<double>(sorted_samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted_samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_samples_[lo] * (1.0 - frac) + sorted_samples_[hi] * frac;
}

} // namespace genesys::stats
