#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * double(xs.size() - 1);
    const size_t lo = size_t(std::floor(rank));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - double(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

size_t
tailSamples(size_t n, double p)
{
    if (n == 0)
        return 0;
    // The rank of the p-th percentile is r = p/100 * (n-1); the samples
    // strictly beyond it are those of rank > r, i.e. (n-1) - floor(r).
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * double(n - 1);
    return (n - 1) - size_t(std::floor(rank + 1e-9));
}

size_t
minSamplesFor(double p)
{
    size_t n = 1;
    while (tailSamples(n, p) < kMinTailSamples)
        ++n;
    return n;
}

double
mean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / double(xs.size());
}

double
geomean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / double(xs.size()));
}

}  // namespace perfbench
