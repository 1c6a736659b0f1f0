/**
 * @file
 * Self-test of the benchmark's own arithmetic: the percentile rule and
 * its tail-sample requirement, self time and coverage of spans, and the
 * validity and uniqueness of every metric name and unit. Exits 0 when
 * every check passes. With --catalog it prints the metric catalog
 * instead, one "name unit better kind" line per metric.
 */
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

using namespace perfbench;

int failures = 0;

/** A metric name: a letter or digit, then at most 63 more letters,
    digits, '_', '.' and '-'. */
bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

/** A unit: 1-16 letters, digits, '_', '/', '%', '.' and '-'. */
bool
validUnit(const std::string& unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string& what)
{
    expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

void
testPercentile()
{
    expectNear(percentile({}, 50.0), 0.0, "empty sample");
    expectNear(percentile({7.0}, 90.0), 7.0, "single sample");
    expectNear(percentile({3.0, 1.0, 2.0}, 50.0), 2.0, "odd median");
    expectNear(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5, "even median");
    std::vector<double> ramp;
    for (int i = 0; i <= 100; ++i)
        ramp.push_back(double(100 - i));
    expectNear(percentile(ramp, 90.0), 90.0, "p90 of 0..100");
    expectNear(percentile(ramp, 0.0), 0.0, "p0 is the minimum");
    expectNear(percentile(ramp, 100.0), 100.0, "p100 is the maximum");
    expectNear(percentile({0.0, 10.0}, 25.0), 2.5, "interpolates");

    // Ten samples must lie beyond a reported percentile.
    expect(tailSamples(101, 90.0) == 10, "101 samples: 10 beyond p90");
    expect(tailSamples(91, 90.0) == 9, "91 samples: 9 beyond p90");
    expect(tailSamples(21, 50.0) == 10, "21 samples: 10 beyond p50");
    const size_t n90 = minSamplesFor(90.0);
    expect(tailSamples(n90, 90.0) >= kMinTailSamples &&
               tailSamples(n90 - 1, 90.0) < kMinTailSamples,
           "minSamplesFor(90) is the smallest reportable count");
    expect(n90 > 90 && n90 <= 101, "p90 needs about 100 samples");
    std::vector<double> sample;
    for (size_t i = 0; i < n90; ++i)
        sample.push_back(double(i));
    const double p90 = percentile(sample, 90.0);
    size_t beyond = 0;
    for (const double x : sample)
        beyond += x > p90 ? 1 : 0;
    expect(beyond >= kMinTailSamples, "samples above p90 value >= 10");

    expectNear(geomean({1.0, 4.0}), 2.0, "geomean");
    expectNear(geomean({1.0, 0.0}), 0.0, "geomean of a zero");
    expectNear(mean({1.0, 2.0, 6.0}), 3.0, "mean");
}

void
testSelfTime()
{
    // cell [0, 100): setup [0, 10), run [10, 90) holding 3 folded calls of
    // 5 us each and a 4 us start call; 10 us of the cell are its own.
    UnitTrace unit(7);
    const int cell = unit.open(Layer::kCell, -1, 0.0);
    unit.add(Layer::kSimSetup, cell, 0.0, 10.0);
    const int run = unit.open(Layer::kSimRun, cell, 10.0);
    unit.add(Layer::kCappingOnStart, run, 10.0, 14.0);
    const int ticks = unit.group(Layer::kRaplOnTick, run);
    unit.addCall(ticks, 20.0, 25.0);
    unit.addCall(ticks, 40.0, 45.0);
    unit.addCall(ticks, 80.0, 85.0);
    unit.close(run, 90.0);
    unit.close(cell, 100.0);

    const std::vector<Span>& spans = unit.spans();
    const std::vector<double> self = selfTimes(spans);
    expectNear(self[size_t(cell)], 10.0, "cell self = 100 - 10 - 80");
    expectNear(self[size_t(run)], 80.0 - 4.0 - 15.0, "run self");
    expectNear(self[size_t(ticks)], 15.0, "folded group self = its busy");
    expect(spans[size_t(ticks)].calls == 3, "group counts its calls");
    expectNear(spans[size_t(ticks)].beginUs, 20.0, "group begins at call 1");
    expectNear(spans[size_t(ticks)].endUs, 85.0, "group ends at last call");
    expectNear(coverage(spans, size_t(cell)), 0.9, "children cover 90%");
    expect(spans[size_t(run)].unit == 7, "spans carry their unit id");

    const LayerTotals t = totals({unit});
    expectNear(t.selfUs[size_t(Layer::kSimRun)], 61.0, "layer self total");
    expect(t.calls[size_t(Layer::kRaplOnTick)] == 3, "layer call total");
    expectNear(t.minCoverage, 0.9, "minimum coverage");
    // Self times partition the root: they sum to its duration.
    double sum = 0.0;
    for (const double s : self)
        sum += s;
    expectNear(sum, 100.0, "self times sum to the unit's wall");

    UnitTrace empty(0);
    const int root = empty.open(Layer::kPeriod, -1, 5.0);
    empty.close(root, 5.0);
    expectNear(coverage(empty.spans(), 0), 1.0, "zero-length root");
}

void
testNames()
{
    std::set<std::string> seen;
    bool haveSetup = false;
    for (const MetricDef& def : metricCatalog()) {
        const std::string name = def.name;
        expect(validMetricName(name), "metric name " + name);
        expect(validUnit(def.unit), "unit of " + name);
        expect(seen.insert(name).second, "duplicate metric " + name);
        expect(std::string(def.better) == "higher" ||
                   std::string(def.better) == "lower",
               "direction of " + name);
        if (name == "setup_s")
            haveSetup = def.endToEnd && std::string(def.unit) == "s" &&
                        std::string(def.better) == "lower";
    }
    expect(haveSetup, "setup_s is end-to-end, in s, lower is better");
    expect(!validMetricName("_x") && !validMetricName("") &&
               !validMetricName("a b") &&
               !validMetricName(std::string(65, 'a')) &&
               validMetricName("9.a-b_c"),
           "name rule");
    expect(!validUnit("") && !validUnit("m s") &&
               !validUnit(std::string(17, 'a')) && validUnit("1/s") &&
               validUnit("%"),
           "unit rule");
    for (size_t i = 0; i < kLayerCount; ++i)
        expect(validMetricName(layerName(Layer(i))), "layer name");
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::string(argv[1]) == "--catalog") {
        // One line per metric for run.py to compare with BENCHMARK.json.
        for (const MetricDef& def : metricCatalog())
            std::printf("%s %s %s %s\n", def.name, def.unit, def.better,
                        def.endToEnd ? "end_to_end" : "per_layer");
        return 0;
    }
    testPercentile();
    testSelfTime();
    testNames();
    std::printf("perfbench self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}
