#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One metric the benchmark reports, as BENCHMARK.json names it. */
struct MetricDef
{
    const char* name;
    const char* unit;
    const char* better;  ///< "higher" or "lower"
    bool endToEnd;       ///< reported untraced; otherwise by the traced run
};

/**
 * Every metric, end-to-end first. Each workload reports every end-to-end
 * metric (untraced run) or every per-layer metric (traced run); a layer a
 * workload never enters reports 0.
 */
const std::vector<MetricDef>& metricCatalog();

/** What one run of one workload produced. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure descriptions, for the human-readable report. */
    std::vector<std::string> failures;
    std::map<std::string, double> values;
    /** Free-form lines printed before the metric table. */
    std::vector<std::string> notes;

    /** Record one failed operation. */
    void fail(const std::string& what);
};

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every catalog metric of the run's kind, values printed with all their
 * digits. Returns an empty string (and names the gap on stderr) when a
 * catalog metric is missing or not finite.
 */
std::string resultJson(const RunResult& result, bool traced);

/** Human-readable table: name, value, unit, better direction. */
void printTable(FILE* out, const RunResult& result, bool traced);

/** Peak resident set size of this process in MB. */
double peakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
