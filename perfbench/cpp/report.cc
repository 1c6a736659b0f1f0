#include "report.h"

#include <sys/resource.h>

#include <cmath>

namespace perfbench {

const std::vector<MetricDef>&
metricCatalog()
{
    static const std::vector<MetricDef> catalog = {
        // End to end (untraced run).
        {"sim_s_per_wall_s", "s/s", "higher", true},
        {"period_ms_p50", "ms", "lower", true},
        {"period_ms_p90", "ms", "lower", true},
        {"setup_s", "s", "lower", true},
        {"peak_rss_mb", "MB", "lower", true},
        {"perf_under_cap", "ratio", "higher", true},
        {"perf_per_node", "ratio", "higher", true},
        // Per layer (traced run).
        {"rapl.on_tick_us", "us", "lower", false},
        {"rapl.calls", "count", "lower", false},
        {"rapl.limit_writes", "count", "lower", false},
        {"rapl.clamp_changes", "count", "lower", false},
        {"capping.on_tick_us", "us", "lower", false},
        {"capping.on_start_us", "us", "lower", false},
        {"capping.calls", "count", "lower", false},
        {"capping.settling_s", "s", "lower", false},
        {"capping.cap_violation_s", "s", "lower", false},
        {"core.decision.steps", "count", "lower", false},
        {"core.decision.walks", "count", "lower", false},
        {"core.decision.samples_rejected", "count", "lower", false},
        {"core.decision.converge_sec", "s", "lower", false},
        {"sim.run_self_us_per_sim_ms", "us", "lower", false},
        {"sim.setup_us", "us", "lower", false},
        {"sched.resolves", "count", "lower", false},
        {"sched.solve_cache.hits", "count", "higher", false},
        {"sched.solve_cache.misses", "count", "lower", false},
        {"sched.solve_cache.hit_rate", "fraction", "higher", false},
        {"load.on_tick_us", "us", "lower", false},
        {"load.calls", "count", "lower", false},
        {"load.jobs_arrived", "count", "higher", false},
        {"load.jobs_completed", "count", "higher", false},
        {"load.jobs_dropped", "count", "lower", false},
        {"load.queue_depth.mean", "count", "lower", false},
        {"load.slo_violation_rate", "fraction", "lower", false},
        {"load.job_p99_s", "s", "lower", false},
        {"harness.cell_ms_p50", "ms", "lower", false},
        {"harness.pool_efficiency", "fraction", "higher", false},
        {"cluster.control_ms_p50", "ms", "lower", false},
        {"cluster.step_ms_p50", "ms", "lower", false},
        {"cluster.control_us_per_node", "us", "lower", false},
        {"cluster.shifts", "count", "lower", false},
        {"cluster.reports_suppressed", "count", "higher", false},
        {"cluster.rebalances_suppressed", "count", "higher", false},
        {"cluster.report_suppression_ratio", "fraction", "higher", false},
        {"cluster.budget_error_w_max", "W", "lower", false},
        {"net.msgs_sent", "count", "lower", false},
        {"net.msgs_delivered", "count", "lower", false},
        {"net.msgs_dropped", "count", "lower", false},
        {"net.msgs_rejected", "count", "lower", false},
        {"net.control_us_per_msg", "us", "lower", false},
        {"trace.overhead_frac", "fraction", "lower", false},
        {"trace.coverage_min", "fraction", "higher", false},
        {"model.pupil_rapl_ratio_60w", "ratio", "higher", false},
        {"model.pupil_rapl_ratio_220w", "ratio", "higher", false},
    };
    return catalog;
}

void
RunResult::fail(const std::string& what)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

namespace {

std::string
formatNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace

std::string
resultJson(const RunResult& result, bool traced)
{
    std::string metrics;
    for (const MetricDef& def : metricCatalog()) {
        if (def.endToEnd == traced)
            continue;
        const auto it = result.values.find(def.name);
        if (it == result.values.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: metric %s %s\n", def.name,
                         it == result.values.end() ? "missing"
                                                   : "not finite");
            return "";
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + def.name + "\": {\"value\": " +
                   formatNumber(it->second) + ", \"unit\": \"" + def.unit +
                   "\"}";
    }
    return std::string("{\"correct\": ") +
           (result.failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": {" + metrics + "}}";
}

void
printTable(FILE* out, const RunResult& result, bool traced)
{
    std::fprintf(out, "%-34s %16s  %-8s %s\n", "metric", "value", "unit",
                 "better");
    for (const MetricDef& def : metricCatalog()) {
        if (def.endToEnd == traced)
            continue;
        const auto it = result.values.find(def.name);
        std::fprintf(out, "%-34s %16.6g  %-8s %s\n", def.name,
                     it != result.values.end() ? it->second : NAN, def.unit,
                     def.better);
    }
    std::fprintf(out, "operations: %llu attempted, %llu failed\n",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed));
    for (const std::string& failure : result.failures)
        std::fprintf(out, "FAILED: %s\n", failure.c_str());
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
