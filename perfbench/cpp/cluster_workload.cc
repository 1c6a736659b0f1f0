/**
 * @file
 * cluster_51k: a 51,200-node BudgetTree, 6,400 racks of 8.
 *
 * The tree is bench/cluster_scale's surrogate tier: a 150 W/node budget,
 * catalog apps cycled node by node, every 4th node on RAPL and the rest
 * on PUPiL, every 64th node a full-stack calibration source for the
 * shared surrogate tables, and the event-driven control plane with a 2 W
 * hysteresis band. A few seeded node-loss windows keep membership
 * changing. Each period, seeded demand churn sets a new utilization on
 * about 1/16 of the surrogate leaves: without it the event-driven plane
 * goes quiet and control cost would depend on run length.
 *
 * The loop is closed: one BudgetTree::run call per simulated 1 s period,
 * the next one issued when it returns. Node stepping runs on the tree's
 * own pool with the run's thread count.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/budget_tree.h"
#include "faults/schedule.h"
#include "harness/sweep.h"
#include "spans.h"
#include "stats.h"
#include "trace/export.h"
#include "util/rng.h"
#include "workload/catalog.h"

namespace perfbench {
namespace {

using namespace pupil;
using cluster::BudgetTree;
using harness::GovernorKind;
using harness::SweepRunner;

constexpr int kNodes = 51200;
constexpr int kNodesPerRack = 8;
constexpr int kSampleEvery = 64;
constexpr double kHysteresisWatts = 2.0;
constexpr double kWattsPerNode = 150.0;
/** Periods run during set-up, before the first timed one. */
constexpr int kWarmupPeriods = 8;
/** Node-loss windows, each on one node of a random rack. */
constexpr int kLossWindows = 8;
/** Share of surrogate leaves whose utilization changes each period. */
constexpr int kChurnEvery = 16;
/** Timed periods the simulated outputs are read over. */
constexpr int kStatsPeriods = 40;
/** Periods of each tree in a traced run. */
constexpr int kTracePeriods = 40;
/** Cold set-ups per untraced run; setup_s is their median. */
constexpr int kClusterSetupProbes = 3;

BudgetTree::Options
treeOptions(int threads)
{
    BudgetTree::Options options;
    options.globalBudgetWatts = kWattsPerNode * kNodes;
    options.periodSec = 1.0;
    options.threads = threads;
    options.hysteresisWatts = kHysteresisWatts;
    return options;
}

/** Node-loss windows on random racks, inside the first timed periods. */
std::string
lossSpec(uint64_t seed)
{
    util::Rng rng(SweepRunner::deriveSeed(seed, 0x1055));
    std::string spec;
    for (int w = 0; w < kLossWindows; ++w) {
        const uint64_t rack = rng.uniformInt(kNodes / kNodesPerRack);
        const uint64_t node = rng.uniformInt(kNodesPerRack);
        const double start =
            kWarmupPeriods + std::floor(rng.uniform(0.0, kStatsPeriods - 10));
        const double end = start + std::floor(rng.uniform(3.0, 10.0));
        if (!spec.empty())
            spec += ';';
        spec += "node-loss,r" + std::to_string(rack) + "n" +
                std::to_string(node) + ',' + trace::formatDouble(start) +
                ',' + trace::formatDouble(end);
    }
    return spec;
}

/** A built tree with its fault schedule and churn stream. */
struct Cluster
{
    faults::FaultSchedule schedule;
    BudgetTree tree;
    std::vector<cluster::SurrogateLeaf*> surrogates;
    util::Rng churn;
    double now = 0.0;

    Cluster(uint64_t seed, int threads)
        : schedule(faults::FaultSchedule::parse(lossSpec(seed))),
          tree(treeOptions(threads)),
          churn(SweepRunner::deriveSeed(seed, 0xC4A2))
    {
        const auto& catalog = workload::benchmarkCatalog();
        int id = 0;
        for (int r = 0; r < kNodes / kNodesPerRack; ++r) {
            const size_t rack = tree.addRack("rack" + std::to_string(r));
            for (int n = 0; n < kNodesPerRack; ++n, ++id) {
                const auto& app = catalog[size_t(id * 7) % catalog.size()];
                const GovernorKind kind =
                    (id % 4 == 3) ? GovernorKind::kRapl : GovernorKind::kPupil;
                const std::string name =
                    "r" + std::to_string(r) + "n" + std::to_string(n);
                const uint64_t nodeSeed =
                    SweepRunner::deriveSeed(seed, size_t(id));
                if (id % kSampleEvery == 0) {
                    const size_t i = tree.addNode(
                        rack, name, harness::singleApp(app.name, 16), kind,
                        nodeSeed);
                    tree.addCalibrationSource(rack, i, app.name, kind);
                } else {
                    const size_t i = tree.addSurrogateNode(
                        rack, name, app.name, kind, nodeSeed);
                    surrogates.push_back(tree.surrogateLeaf(rack, i));
                }
            }
        }
        tree.setFaultSchedule(&schedule);
    }

    /** Seeded demand churn on ~1/kChurnEvery of the surrogate leaves. */
    void churnDemand()
    {
        const size_t picks = surrogates.size() / kChurnEvery;
        for (size_t k = 0; k < picks; ++k) {
            cluster::SurrogateLeaf* leaf =
                surrogates[size_t(churn.uniformInt(surrogates.size()))];
            leaf->setUtilization(churn.uniform(0.4, 1.0));
        }
    }
};

/** One period's host cost. */
struct PeriodTiming
{
    double wallSec = 0.0;
    double controlSec = 0.0;
    double stepSec = 0.0;
    uint64_t delivered = 0;  ///< messages delivered during the period
};

/**
 * Run one period (churn, BudgetTree::run, checks). Only the run call is
 * timed. A failed check counts the period as a failed operation.
 */
PeriodTiming
runPeriod(Cluster& c, RunResult& out)
{
    c.churnDemand();
    c.now += 1.0;
    const uint64_t deliveredBefore = c.tree.transportStats().delivered;
    const double wall = timeSeconds([&]() { c.tree.run(c.now); });
    PeriodTiming timing;
    timing.wallSec = wall;
    timing.controlSec = c.tree.controlWallSamples().back();
    timing.stepSec = c.tree.stepWallSamples().back();
    timing.delivered = c.tree.transportStats().delivered - deliveredBefore;

    ++out.attempted;
    const BudgetTree::Options options = treeOptions(1);
    const double errorLimit = 1e-7 * options.globalBudgetWatts;
    const double error = c.tree.budgetErrorWatts();
    std::string failure;
    if (!(error <= errorLimit))
        failure = "conservation error " + std::to_string(error) + " W";
    for (size_t r = 0; r < c.tree.rackCount() && failure.empty(); ++r) {
        for (size_t i = 0; i < c.tree.nodeCount(r); ++i) {
            const cluster::Node& node = c.tree.node(r, i);
            if (!node.online || node.failed || !c.tree.nodeProvisioned(r, i))
                continue;
            if (node.capWatts < options.minNodeCapWatts ||
                node.capWatts > options.nodeTdpWatts) {
                failure = node.name + " enforces " +
                          std::to_string(node.capWatts) + " W";
                break;
            }
        }
    }
    if (!failure.empty())
        out.fail("period " + std::to_string(int(c.now)) + ": " + failure);
    return timing;
}

/** Build a tree and run its warm-up periods. */
std::unique_ptr<Cluster>
setUp(const Args& args, RunResult& out)
{
    auto c = std::make_unique<Cluster>(args.seed, args.threads);
    for (int p = 0; p < kWarmupPeriods; ++p)
        runPeriod(*c, out);
    return c;
}

/** Geomean of the online nodes' normalized performance right now. */
double
nodePerfGeomean(const BudgetTree& tree)
{
    std::vector<double> perf;
    perf.reserve(kNodes);
    for (size_t r = 0; r < tree.rackCount(); ++r) {
        for (size_t i = 0; i < tree.nodeCount(r); ++i) {
            const cluster::Node& node = tree.node(r, i);
            if (node.online && !node.failed)
                perf.push_back(node.leaf->normalizedPerf());
        }
    }
    return geomean(perf);
}

/** Sum of a registry metric over the full-stack leaves' platforms. */
double
leafMetricSum(const BudgetTree& tree, const char* name)
{
    double sum = 0.0;
    for (size_t r = 0; r < tree.rackCount(); ++r) {
        for (size_t i = 0; i < tree.nodeCount(r); ++i) {
            const cluster::Node& node = tree.node(r, i);
            if (node.platform != nullptr)
                sum += node.platform->metrics().value(name);
        }
    }
    return sum;
}

RunResult
runUntraced(const Args& args)
{
    RunResult out;
    std::vector<double> setups;
    std::vector<uint64_t> probeDigests;
    if (!args.setupProbe)
        setups = timeColdSetups(args, kClusterSetupProbes, probeDigests);
    std::unique_ptr<Cluster> c = setUp(args, out);
    if (args.setupProbe) {
        reportSetupDone(c->tree.stateDigest());
        return out;
    }
    // Every probe builds the same tree from the same seed.
    for (size_t k = 0; k < probeDigests.size(); ++k) {
        if (probeDigests[k] != c->tree.stateDigest())
            out.fail("set-up probe " + std::to_string(k) +
                     " built another tree");
    }

    const size_t minPeriods =
        std::max<size_t>(minSamplesFor(90.0), kStatsPeriods);
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> periodMs;
    double wall = 0.0, perfSum = 0.0, perfGeomean = 0.0, rssMb = 0.0;
    while (periodMs.size() < minPeriods ||
           secondsSince(start) < args.seconds) {
        const PeriodTiming timing = runPeriod(*c, out);
        periodMs.push_back(1e3 * timing.wallSec);
        wall += timing.wallSec;
        if (periodMs.size() <= size_t(kStatsPeriods))
            perfSum += c->tree.aggregatePerformance() / kNodes;
        if (periodMs.size() == size_t(kStatsPeriods))
            perfGeomean = nodePerfGeomean(c->tree);
        // Leaf traces grow with simulated time: read the peak at a fixed
        // period so it does not depend on how many periods the wall
        // budget allowed.
        if (periodMs.size() == minPeriods)
            rssMb = peakRssMb();
    }

    auto& v = out.values;
    // sim_s_per_wall_s is 1000 / mean period_ms over the same samples, so
    // on this workload it repeats the period metrics: every workload must
    // report every end-to-end metric.
    v["sim_s_per_wall_s"] = double(periodMs.size()) / wall;
    v["period_ms_p50"] = percentile(periodMs, 50.0);
    v["period_ms_p90"] = percentile(periodMs, 90.0);
    v["setup_s"] = percentile(setups, 50.0);
    v["peak_rss_mb"] = rssMb;
    v["perf_under_cap"] = perfGeomean;
    v["perf_per_node"] = perfSum / kStatsPeriods;
    out.notes.push_back(setupNote(setups));
    out.notes.push_back(std::to_string(periodMs.size()) +
                        " timed periods after " +
                        std::to_string(kWarmupPeriods) +
                        " warm-up periods");
    return out;
}

RunResult
runTraced(const Args& args)
{
    // Two trees from the same seed, one after the other: the timed one
    // bare, the traced one with spans around each run call. Their final
    // states must be identical; their cost ratio is the tracing overhead.
    RunResult out;
    double timedWall = 0.0;
    uint64_t timedDigest = 0;
    {
        std::unique_ptr<Cluster> timed = setUp(args, out);
        for (int p = 0; p < kTracePeriods; ++p)
            timedWall += runPeriod(*timed, out).wallSec;
        timedDigest = timed->tree.stateDigest();
    }

    std::unique_ptr<Cluster> traced = setUp(args, out);
    std::vector<UnitTrace> units;
    std::vector<double> controlMs, stepMs;
    double tracedWall = 0.0, controlUs = 0.0, errorMax = 0.0;
    uint64_t delivered = 0;
    for (int p = 0; p < kTracePeriods; ++p) {
        UnitTrace& unit = units.emplace_back(uint32_t(kWarmupPeriods + p));
        const double begin = nowUs();
        const PeriodTiming timing = runPeriod(*traced, out);
        const double end = begin + 1e6 * timing.wallSec;
        const int span = unit.add(Layer::kPeriod, -1, begin, end);
        // The tree interleaves its control phases around the step
        // barrier, so each folds into one group spanning the period.
        unit.addCall(unit.group(Layer::kClusterControl, span), begin,
                     begin + 1e6 * timing.controlSec);
        unit.addCall(unit.group(Layer::kClusterStep, span), begin,
                     begin + 1e6 * timing.stepSec);
        if (coverage(unit.spans(), size_t(span)) < kMinCoverage)
            out.fail("period " + std::to_string(unit.unit()) +
                     ": control and step cover under " +
                     std::to_string(kMinCoverage) + " of the period");
        tracedWall += timing.wallSec;
        controlMs.push_back(1e3 * timing.controlSec);
        stepMs.push_back(1e3 * timing.stepSec);
        controlUs += 1e6 * timing.controlSec;
        delivered += timing.delivered;
        errorMax = std::max(errorMax, traced->tree.budgetErrorWatts());
    }
    if (traced->tree.stateDigest() != timedDigest)
        out.fail("traced tree state differs from the timed tree's");

    const BudgetTree& tree = traced->tree;
    const net::Transport::Stats& net = tree.transportStats();
    const LayerTotals t = totals(units);
    auto& v = out.values;
    v["cluster.control_ms_p50"] = percentile(controlMs, 50.0);
    v["cluster.step_ms_p50"] = percentile(stepMs, 50.0);
    v["cluster.control_us_per_node"] = v["cluster.control_ms_p50"] * 1e3 /
                                       kNodes;
    v["cluster.shifts"] = tree.shifts();
    v["cluster.reports_suppressed"] = double(tree.reportsSuppressed());
    v["cluster.rebalances_suppressed"] = double(tree.rebalancesSuppressed());
    v["cluster.report_suppression_ratio"] =
        double(tree.reportsSuppressed()) /
        double(tree.reportsSuppressed() + net.sent);
    v["cluster.budget_error_w_max"] = errorMax;
    v["net.msgs_sent"] = double(net.sent);
    v["net.msgs_delivered"] = double(net.delivered);
    v["net.msgs_dropped"] = double(net.dropped);
    v["net.msgs_rejected"] = double(net.rejected);
    v["net.control_us_per_msg"] =
        delivered > 0 ? controlUs / double(delivered) : 0.0;
    v["trace.overhead_frac"] = tracedWall / timedWall - 1.0;
    v["trace.coverage_min"] = t.minCoverage;

    // The full-stack calibration leaves are the only ones with RAPL
    // firmware, a scheduler and a walker; their registries give counts.
    // Their calls run inside the tree's step and cannot be timed from
    // outside, so the per-call times stay 0.
    const double hits = leafMetricSum(tree, "sched.solve_cache.hits");
    const double misses = leafMetricSum(tree, "sched.solve_cache.misses");
    v["rapl.limit_writes"] = leafMetricSum(tree, "rapl.limit_writes");
    v["rapl.clamp_changes"] = leafMetricSum(tree, "rapl.clamp_changes");
    v["sched.resolves"] = leafMetricSum(tree, "sched.resolves");
    v["sched.solve_cache.hits"] = hits;
    v["sched.solve_cache.misses"] = misses;
    v["sched.solve_cache.hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    v["core.decision.steps"] = leafMetricSum(tree, "decision.steps");
    v["core.decision.walks"] = leafMetricSum(tree, "decision.walks");
    v["core.decision.samples_rejected"] =
        leafMetricSum(tree, "decision.samples_rejected");
    v["core.decision.converge_sec"] = 0.0;
    for (const char* name :
         {"rapl.on_tick_us", "rapl.calls", "capping.on_tick_us",
          "capping.on_start_us", "capping.calls", "capping.settling_s",
          "capping.cap_violation_s", "sim.run_self_us_per_sim_ms",
          "sim.setup_us", "load.on_tick_us", "load.calls",
          "load.jobs_arrived", "load.jobs_completed", "load.jobs_dropped",
          "load.queue_depth.mean", "load.slo_violation_rate",
          "load.job_p99_s", "harness.cell_ms_p50", "harness.pool_efficiency",
          "model.pupil_rapl_ratio_60w", "model.pupil_rapl_ratio_220w"})
        v[name] = 0.0;

    const std::string path = args.traceDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.csv";
    out.notes.push_back(writeSpansCsv(path, units)
                            ? "spans: " + path
                            : "spans: could not write " + path);
    out.notes.push_back(std::to_string(kTracePeriods) +
                        " periods on each of two trees after " +
                        std::to_string(kWarmupPeriods) + " warm-up periods");
    return out;
}

}  // namespace

RunResult
runCluster51k(const Args& args)
{
    return args.trace ? runTraced(args) : runUntraced(args);
}

}  // namespace perfbench
