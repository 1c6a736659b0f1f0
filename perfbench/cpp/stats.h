#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * Linear-interpolated percentile, @p p in [0, 100]: the value at rank
 * p/100 * (n - 1) of the sorted samples, interpolated between the two
 * neighbouring ranks. 0 for an empty sample.
 */
double percentile(std::vector<double> xs, double p);

/**
 * Samples of rank strictly above the p-th percentile's rank p/100 *
 * (n - 1). A percentile is reportable only when this is at least
 * kMinTailSamples (minSamplesFor gives the smallest such n).
 */
size_t tailSamples(size_t n, double p);

/** Minimum samples beyond a reported percentile. */
inline constexpr size_t kMinTailSamples = 10;

/** Smallest sample count whose p-th percentile is reportable. */
size_t minSamplesFor(double p);

double mean(const std::vector<double>& xs);

/** Geometric mean; 0 when the sample is empty or holds a value <= 0. */
double geomean(const std::vector<double>& xs);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
