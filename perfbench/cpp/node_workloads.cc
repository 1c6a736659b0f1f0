/**
 * @file
 * The single-node workloads, node_paper and node_tenant.
 *
 * Both are closed loops of experiment cells on the harness::SweepRunner
 * pool: a round runs every cell once, and the next round starts when the
 * last cell of the previous one finished. Rounds repeat until the run's
 * wall budget is spent. An untraced run cycles through kCellSets sets of
 * the cells, each set with its own cell seeds drawn from the run's seed:
 * the first round of a set fixes its simulated (deterministic) outputs,
 * and each later round of the set must reproduce them bit for bit.
 *
 * The untraced path calls harness::runExperiment, the public entry point.
 * The traced path rebuilds the same experiment step by step with a proxy
 * sim::Actor around the RAPL firmware, the governor and the load driver,
 * so each layer is timed from outside; its results must equal the
 * untraced ones bit for bit, which also catches drift between this copy
 * and runExperiment.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "bench_common.h"
#include "capping/governor.h"
#include "cluster/leaf_model.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "load/load_driver.h"
#include "rapl/rapl.h"
#include "sim/actor.h"
#include "sim/platform.h"
#include "spans.h"
#include "stats.h"
#include "telemetry/settling.h"
#include "workload/catalog.h"
#include "workload/mixes.h"

namespace perfbench {
namespace {

using namespace pupil;
using harness::ExperimentOptions;
using harness::ExperimentResult;
using harness::GovernorKind;
using harness::SweepRunner;

/** One experiment cell: a governor on a workload under a cap. */
struct Cell
{
    GovernorKind kind = GovernorKind::kPupil;
    std::vector<sched::AppDemand> apps;
    ExperimentOptions options;
    std::string label;
    /** Catalog app of a single-app cell; empty for mixes and tenants. */
    std::string singleApp;
    /** Governor, cap and rate of a tenant cell, shared by its replicas;
        the traced run prints the solve-cache hit rate per group. */
    std::string group;
};

/** The paper's caps the model-accuracy ratios are quoted at. */
constexpr double kLowCap = 60.0;
constexpr double kHighCap = 220.0;
/** PUPiL/RAPL performance ratios of the paper at those caps, as quoted
    in EXPERIMENTS.md (Table 3: .71/.54 and .94/.79). */
constexpr double kPaperRatioLowCap = 1.31;
constexpr double kPaperRatioHighCap = 1.19;

/**
 * node_paper: three red (RAPL-unfriendly) and three blue catalog apps
 * alone, plus a red-only and a half-and-half Table-4 mix in the oblivious
 * scenario, each under RAPL, Soft-Decision and PUPiL at 60, 140 and
 * 220 W -- 72 cells of 220 simulated seconds.
 */
std::vector<Cell>
paperCells()
{
    const std::vector<std::string> singles = {
        "x264", "kmeans", "STREAM",        // red
        "blackscholes", "jacobi", "cfd",  // blue
    };
    const std::vector<std::string> mixes = {"mix5", "mix9"};
    const std::vector<GovernorKind> governors = {
        GovernorKind::kRapl, GovernorKind::kSoftDecision,
        GovernorKind::kPupil};
    const std::vector<double> caps = {kLowCap, 140.0, kHighCap};
    std::vector<Cell> cells;
    for (const GovernorKind kind : governors) {
        for (const double cap : caps) {
            for (const std::string& app : singles) {
                Cell cell;
                cell.kind = kind;
                cell.apps = harness::singleApp(app);
                cell.options = bench::defaultOptions(cap);
                cell.singleApp = app;
                cell.label = std::string(harness::governorName(kind)) + '/' +
                             app + '@' + std::to_string(int(cap)) + 'W';
                cells.push_back(std::move(cell));
            }
            for (const std::string& mix : mixes) {
                Cell cell;
                cell.kind = kind;
                cell.apps = harness::mixApps(workload::findMix(mix),
                                             workload::Scenario::kOblivious);
                cell.options = bench::defaultOptions(cap);
                cell.label = std::string(harness::governorName(kind)) + '/' +
                             mix + '@' + std::to_string(int(cap)) + 'W';
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

/**
 * Independent tenant streams per node_tenant cell, and the simulated
 * length of each: a cell's throughput follows its Poisson stream, so
 * fewer or shorter streams make perf_under_cap swing from seed to seed.
 */
constexpr int kTenantReplicas = 4;
constexpr double kTenantDurationSec = 600.0;
constexpr double kTenantStatsWindowSec = 400.0;

/**
 * node_tenant: one node serving open-loop Poisson tenant traffic and no
 * static apps, under PUPiL and RAPL at 40 and 50 W with 0.4 and 0.8
 * jobs/s, each cell with kTenantReplicas independent job streams.
 */
std::vector<Cell>
tenantCells()
{
    std::vector<Cell> cells;
    for (int replica = 0; replica < kTenantReplicas; ++replica) {
        for (const GovernorKind kind :
             {GovernorKind::kPupil, GovernorKind::kRapl}) {
            for (const double cap : {40.0, 50.0}) {
                for (const double rate : {0.4, 0.8}) {
                    Cell cell;
                    cell.kind = kind;
                    cell.options = bench::defaultOptions(cap);
                    cell.options.durationSec = kTenantDurationSec;
                    cell.options.statsWindowSec = kTenantStatsWindowSec;
                    cell.options.load.enabled = true;
                    cell.options.load.spec.kind = load::ArrivalKind::kPoisson;
                    cell.options.load.spec.ratePerSec = rate;
                    char group[64];
                    std::snprintf(group, sizeof(group), "%s/%gW/%gjps",
                                  harness::governorName(kind), cap, rate);
                    cell.group = group;
                    cell.label = cell.group + "/r" + std::to_string(replica);
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    return cells;
}

// ----- result identity -------------------------------------------------

/** Mix @p s into an FNV-1a @p hash, terminated so that splits differ. */
void
mixString(uint64_t& hash, const std::string& s)
{
    for (const char c : s)
        cluster::fnvMix(hash, uint8_t(c));
    cluster::fnvMix(hash, 0x100);
}

/** Digest of every field of an experiment result, traces included. */
uint64_t
resultDigest(const ExperimentResult& r)
{
    uint64_t h = cluster::kFnvOffset;
    mixString(h, r.governor);
    for (const double v :
         {r.capWatts, r.aggregatePerf, r.meanPowerWatts, r.perfPerJoule,
          r.settlingTimeSec, r.capViolationSec, r.gips, r.bandwidthGBs,
          r.spinPercent, r.durationSec, r.degradedSec, r.p99LatencySec,
          r.sloViolationRate})
        cluster::fnvMixDouble(h, v);
    for (const uint64_t v :
         {uint64_t(r.capFeasible), uint64_t(r.converged), r.faultsInjected,
          r.faultsDetected, r.jobsArrived, r.jobsCompleted, r.jobsDropped,
          r.sloViolations})
        cluster::fnvMix(h, v);
    for (const double v : r.appItemsPerSec)
        cluster::fnvMixDouble(h, v);
    for (const double v : r.completionTimes)
        cluster::fnvMixDouble(h, v);
    for (const auto* trace : {&r.powerTrace, &r.perfTrace}) {
        for (const telemetry::TracePoint& p : *trace) {
            cluster::fnvMixDouble(h, p.timeSec);
            cluster::fnvMixDouble(h, p.value);
        }
    }
    for (const auto& [name, value] : r.metrics) {
        mixString(h, name);
        cluster::fnvMixDouble(h, value);
    }
    return h;
}

double
metric(const ExperimentResult& r, const std::string& name)
{
    for (const auto& [key, value] : r.metrics) {
        if (key == name)
            return value;
    }
    return 0.0;
}

// ----- traced experiment -------------------------------------------------

/**
 * Transparent proxy around a sim::Actor: forwards every call and period
 * unchanged and times each call into the current unit's spans. onStart
 * lands as a single span of @p startLayer under the current sim.run span,
 * onTick calls fold into one @p tickLayer group per sim.run span.
 */
class TimedActor : public sim::Actor
{
  public:
    TimedActor(sim::Actor& inner, UnitTrace& trace, Layer tickLayer,
               Layer startLayer)
        : inner_(inner), trace_(trace), tickLayer_(tickLayer),
          startLayer_(startLayer)
    {
    }

    /** Direct the next calls under sim.run span @p runSpan. */
    void beginRun(int runSpan)
    {
        run_ = runSpan;
        group_ = trace_.group(tickLayer_, runSpan);
    }

    /** Called after every onTick, outside the timed interval. */
    void setAfterTick(std::function<void()> fn) { afterTick_ = std::move(fn); }

    void onStart(sim::Platform& platform) override
    {
        const double begin = nowUs();
        inner_.onStart(platform);
        trace_.add(startLayer_, run_, begin, nowUs());
    }

    void onTick(sim::Platform& platform, double now) override
    {
        const double begin = nowUs();
        inner_.onTick(platform, now);
        trace_.addCall(group_, begin, nowUs());
        if (afterTick_)
            afterTick_();
    }

    double periodSec() const override { return inner_.periodSec(); }

  private:
    sim::Actor& inner_;
    UnitTrace& trace_;
    Layer tickLayer_;
    Layer startLayer_;
    int run_ = -1;
    int group_ = -1;
    std::function<void()> afterTick_;
};

/** What a traced tenant cell saw of its load driver. */
struct LoadProbe
{
    double depthSum = 0.0;
    uint64_t depthSamples = 0;
    /** arrivals == completions + drops + running + queued before finish. */
    bool jobsConserved = true;
};

/**
 * harness::runExperiment rebuilt step for step (fixed-duration cells
 * only), with proxies timing each layer. Every simulated output equals
 * runExperiment's bit for bit: the proxies draw no randomness and change
 * no call order.
 */
ExperimentResult
tracedExperiment(GovernorKind kind, const std::vector<sched::AppDemand>& apps,
                 const ExperimentOptions& options, UnitTrace& trace,
                 int cellSpan, LoadProbe& probe)
{
    const double setupBegin = nowUs();
    sim::PlatformOptions platformOptions = options.platform;
    platformOptions.seed = options.seed;
    std::vector<sched::AppDemand> demand = apps;
    const size_t firstLoadSlot = demand.size();
    if (options.load.enabled) {
        for (size_t s = 0; s < std::max<size_t>(options.load.slots, 1); ++s)
            demand.push_back({&workload::calibrationApp(), 0});
    }
    sim::Platform platform(platformOptions, std::move(demand));
    platform.warmStart(machine::maximalConfig());
    platform.mutableCounters().reset();
    platform.mutableCounters().resetFaults();
    platform.metrics().reset();
    trace.add(Layer::kSimSetup, cellSpan, setupBegin, nowUs());

    rapl::RaplController rapl;
    core::StrategyOptions strategy = options.strategy;
    if (strategy.seed == 0)
        strategy.seed = SweepRunner::deriveSeed(options.seed, 0x5EED);
    std::unique_ptr<capping::Governor> governor =
        harness::makeGovernor(kind, options.pupilPolicy, strategy);
    governor->attachRapl(&rapl);
    governor->setCap(options.capWatts);
    TimedActor raplProxy(rapl, trace, Layer::kRaplOnTick, Layer::kRaplOnTick);
    TimedActor governorProxy(*governor, trace, Layer::kCappingOnTick,
                             Layer::kCappingOnStart);
    platform.addActor(&raplProxy);
    platform.addActor(&governorProxy);
    std::vector<TimedActor*> proxies = {&raplProxy, &governorProxy};

    std::unique_ptr<load::LoadDriver> loadDriver;
    std::unique_ptr<TimedActor> loadProxy;
    if (options.load.enabled) {
        const uint64_t loadSeed =
            options.load.seed != 0
                ? options.load.seed
                : SweepRunner::deriveSeed(options.seed, 0x70AD);
        loadDriver = std::make_unique<load::LoadDriver>(
            options.load, firstLoadSlot, loadSeed);
        loadDriver->attachGovernor(governor.get());
        loadProxy = std::make_unique<TimedActor>(
            *loadDriver, trace, Layer::kLoadOnTick, Layer::kLoadOnTick);
        load::LoadDriver* driver = loadDriver.get();
        loadProxy->setAfterTick([driver, &probe]() {
            probe.depthSum += double(driver->queue().totalDepth());
            ++probe.depthSamples;
        });
        platform.addActor(loadProxy.get());
        proxies.push_back(loadProxy.get());
    }

    const auto runTimed = [&](double untilSec) {
        const int run = trace.open(Layer::kSimRun, cellSpan, nowUs());
        for (TimedActor* proxy : proxies)
            proxy->beginRun(run);
        platform.run(untilSec);
        trace.close(run, nowUs());
    };
    const double statsStart =
        std::max(0.0, options.durationSec - options.statsWindowSec);
    runTimed(statsStart);
    platform.resetStatsWindow();
    runTimed(options.durationSec);

    ExperimentResult result;
    result.governor = governor->name();
    result.capWatts = options.capWatts;
    result.aggregatePerf = platform.energy().meanItemsPerSec();
    const double window = std::max(platform.statsWindowSec(), 1e-9);
    for (size_t i = 0; i < platform.appCount(); ++i)
        result.appItemsPerSec.push_back(platform.appItems(i) / window);
    result.meanPowerWatts = platform.energy().meanPower();
    result.perfPerJoule = platform.energy().itemsPerJoule();
    result.settlingTimeSec =
        telemetry::settlingTime(platform.powerTrace(), options.capWatts);
    result.capViolationSec = platform.capViolationSec(options.capWatts);
    result.gips = platform.counters().gips();
    result.bandwidthGBs = platform.counters().bandwidthGBs();
    result.spinPercent = platform.counters().spinPercent();
    result.capFeasible = governor->capFeasible();
    result.converged = governor->converged();
    result.durationSec = options.durationSec;
    result.degradedSec = platform.counters().degradedSeconds();
    result.faultsInjected = platform.counters().faultsInjected();
    result.faultsDetected = platform.counters().faultsDetected();
    result.powerTrace = platform.powerTrace();
    result.perfTrace = platform.perfTrace();

    if (loadDriver != nullptr) {
        const load::SloTracker& tracker = loadDriver->tracker();
        probe.jobsConserved =
            tracker.totalArrivals() ==
            tracker.totalCompletions() + tracker.totalDrops() +
                uint64_t(loadDriver->runningJobs()) +
                uint64_t(loadDriver->queue().totalDepth());
        const double finishBegin = nowUs();
        loadDriver->finish(platform);
        trace.add(Layer::kLoadFinish, cellSpan, finishBegin, nowUs());
        result.jobsArrived = tracker.totalArrivals();
        result.jobsCompleted = tracker.totalCompletions();
        result.jobsDropped = tracker.totalDrops();
        result.sloViolations = tracker.totalViolations();
        result.p99LatencySec = tracker.p99LatencySec();
        result.sloViolationRate = tracker.violationRate();
    }

    telemetry::MetricsRegistry& metrics = platform.metrics();
    metrics.setGauge("counters.gips", result.gips);
    metrics.setGauge("counters.bandwidth_gbs", result.bandwidthGBs);
    metrics.setGauge("counters.spin_percent", result.spinPercent);
    metrics.setGauge("faults.injected", double(result.faultsInjected));
    metrics.setGauge("faults.detected", double(result.faultsDetected));
    metrics.setGauge("pupil.degraded_sec", result.degradedSec);
    metrics.setGauge("experiment.duration_sec", options.durationSec);
    metrics.setGauge("experiment.mean_power_watts", result.meanPowerWatts);
    const uint64_t cacheHits = metrics.counterTotal("sched.solve_cache.hits");
    const uint64_t cacheMisses =
        metrics.counterTotal("sched.solve_cache.misses");
    if (cacheHits + cacheMisses > 0) {
        metrics.setGauge("sched.solve_cache.hit_rate",
                         double(cacheHits) /
                             double(cacheHits + cacheMisses));
    }
    result.metrics = metrics.snapshot();
    return result;
}

// ----- rounds ------------------------------------------------------------

struct CellRun
{
    /** Traces dropped after digesting; the whole result is dropped once
        checked, except in round 0. */
    ExperimentResult result;
    uint64_t digest = 0;
    double wallSec = 0.0;
    double simSec = 0.0;
    LoadProbe probe;
};

struct Round
{
    std::vector<CellRun> cells;
    double wallSec = 0.0;
    double simSec = 0.0;
    /** Spans of each cell (traced rounds only). */
    std::vector<UnitTrace> traces;
};

/**
 * Cell sets an untraced run cycles through. Cell i of set k gets the seed
 * deriveSeed(seed, k * cells + i), so set 0 is what a traced run runs and
 * the others are independent draws of every seeded input. A tenant cell's
 * work follows its Poisson stream (solve-cache misses vary by about 15%
 * from seed to seed), so a run takes host time and outcomes over three
 * draws rather than one.
 */
constexpr size_t kCellSets = 3;

ExperimentOptions
cellOptions(const Cell& cell, uint64_t seed, size_t index)
{
    ExperimentOptions options = cell.options;
    options.seed = SweepRunner::deriveSeed(seed, index);
    return options;
}

Round
runRound(SweepRunner& pool, const std::vector<Cell>& cells, uint64_t seed,
         size_t set, bool traced)
{
    Round round;
    round.cells.resize(cells.size());
    if (traced) {
        for (size_t i = 0; i < cells.size(); ++i)
            round.traces.emplace_back(uint32_t(i));
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::string> errors =
        pool.forEach(cells.size(), [&](size_t i) {
            const Cell& cell = cells[i];
            const ExperimentOptions options =
                cellOptions(cell, seed, set * cells.size() + i);
            CellRun& out = round.cells[i];
            const auto cellStart = std::chrono::steady_clock::now();
            if (traced) {
                UnitTrace& trace = round.traces[i];
                const int span = trace.open(Layer::kCell, -1, nowUs());
                out.result = tracedExperiment(cell.kind, cell.apps, options,
                                              trace, span, out.probe);
                trace.close(span, nowUs());
            } else {
                out.result =
                    harness::runExperiment(cell.kind, cell.apps, options);
            }
            out.wallSec = secondsSince(cellStart);
            out.simSec = out.result.durationSec;
            out.digest = resultDigest(out.result);
            // Move-assign, not `= {}`, which keeps the capacity.
            out.result.powerTrace = std::vector<telemetry::TracePoint>();
            out.result.perfTrace = std::vector<telemetry::TracePoint>();
        });
    round.wallSec = secondsSince(start);
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!errors[i].empty())
            throw std::runtime_error(cells[i].label + ": " + errors[i]);
        round.simSec += round.cells[i].simSec;
    }
    return round;
}

/** Per-workload output checks on one finished cell. */
using CellCheck = std::function<void(const Cell&, const CellRun&, bool traced,
                                     RunResult&)>;

void
checkPaperCell(const Cell& cell, const CellRun& run, bool, RunResult& out)
{
    const ExperimentResult& r = run.result;
    const double limit = cell.options.capWatts * 1.02 + 1.0;
    if (r.capFeasible && r.meanPowerWatts > limit) {
        out.fail(cell.label + ": stats-window mean power " +
                 std::to_string(r.meanPowerWatts) + " W over the cap");
    }
}

void
checkTenantCell(const Cell& cell, const CellRun& run, bool traced,
                RunResult& out)
{
    const ExperimentResult& r = run.result;
    if (traced) {
        // The traced path sees the load driver: jobs are conserved exactly.
        if (!run.probe.jobsConserved)
            out.fail(cell.label + ": arrivals != completions + drops + "
                                  "running + queued");
        return;
    }
    // Untraced, only totals are visible: whatever neither completed nor
    // dropped must fit in the slots and the tier queues.
    const uint64_t settled = r.jobsCompleted + r.jobsDropped;
    const uint64_t open = r.jobsArrived - std::min(r.jobsArrived, settled);
    const uint64_t room =
        cell.options.load.slots +
        uint64_t(load::kTierCount) * cell.options.load.queueCapacityPerTier;
    if (settled > r.jobsArrived || open > room)
        out.fail(cell.label + ": job accounting does not balance");
}

/** Geomean PUPiL/RAPL perf ratio over the single-app cells at @p cap. */
double
pupilRaplRatio(const std::vector<Cell>& cells, const Round& round, double cap)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].kind != GovernorKind::kPupil ||
            cells[i].options.capWatts != cap || cells[i].singleApp.empty())
            continue;
        for (size_t j = 0; j < cells.size(); ++j) {
            if (cells[j].kind == GovernorKind::kRapl &&
                cells[j].options.capWatts == cap &&
                cells[j].singleApp == cells[i].singleApp) {
                ratios.push_back(round.cells[i].result.aggregatePerf /
                                 round.cells[j].result.aggregatePerf);
            }
        }
    }
    return geomean(ratios);
}

/** The simulated outputs of round 0 that the traced run reports. */
void
outcomeMetrics(const std::vector<Cell>& cells, const Round& round,
               RunResult& out)
{
    double settling = 0.0, violation = 0.0, converge = 0.0;
    int walkerCells = 0;
    double steps = 0, walks = 0, rejected = 0, resolves = 0, hits = 0,
           misses = 0, limitWrites = 0, clampChanges = 0;
    double arrived = 0, completed = 0, dropped = 0, violations = 0,
           scored = 0, p99 = 0;
    for (const CellRun& run : round.cells) {
        const ExperimentResult& r = run.result;
        settling += r.settlingTimeSec;
        violation += r.capViolationSec;
        steps += metric(r, "decision.steps");
        walks += metric(r, "decision.walks");
        rejected += metric(r, "decision.samples_rejected");
        if (metric(r, "decision.walks") > 0) {
            converge += metric(r, "decision.converge_sec");
            ++walkerCells;
        }
        resolves += metric(r, "sched.resolves");
        hits += metric(r, "sched.solve_cache.hits");
        misses += metric(r, "sched.solve_cache.misses");
        limitWrites += metric(r, "rapl.limit_writes");
        clampChanges += metric(r, "rapl.clamp_changes");
        arrived += double(r.jobsArrived);
        completed += double(r.jobsCompleted);
        dropped += double(r.jobsDropped);
        violations += double(r.sloViolations);
        scored += metric(r, "load.scored");
        p99 += r.p99LatencySec;
    }
    const double n = double(cells.size());
    auto& v = out.values;
    v["capping.settling_s"] = settling / n;
    v["capping.cap_violation_s"] = violation / n;
    v["core.decision.steps"] = steps;
    v["core.decision.walks"] = walks;
    v["core.decision.samples_rejected"] = rejected;
    v["core.decision.converge_sec"] =
        walkerCells > 0 ? converge / walkerCells : 0.0;
    v["sched.resolves"] = resolves;
    v["sched.solve_cache.hits"] = hits;
    v["sched.solve_cache.misses"] = misses;
    v["sched.solve_cache.hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    v["rapl.limit_writes"] = limitWrites;
    v["rapl.clamp_changes"] = clampChanges;
    v["load.jobs_arrived"] = arrived;
    v["load.jobs_completed"] = completed;
    v["load.jobs_dropped"] = dropped;
    v["load.slo_violation_rate"] = scored > 0 ? violations / scored : 0.0;
    v["load.job_p99_s"] = p99 / n;
}

/**
 * The solve-cache hit rate of each cell group in round 0, as a note: the
 * pooled rate hides how far the overloaded groups sit in the miss regime.
 */
std::string
groupHitRates(const std::vector<Cell>& cells, const Round& round)
{
    std::vector<std::string> groups;
    std::vector<double> hits, misses;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].group.empty())
            continue;
        const size_t g = size_t(
            std::find(groups.begin(), groups.end(), cells[i].group) -
            groups.begin());
        if (g == groups.size()) {
            groups.push_back(cells[i].group);
            hits.push_back(0.0);
            misses.push_back(0.0);
        }
        hits[g] += metric(round.cells[i].result, "sched.solve_cache.hits");
        misses[g] +=
            metric(round.cells[i].result, "sched.solve_cache.misses");
    }
    std::string note;
    for (size_t g = 0; g < groups.size(); ++g) {
        char item[96];
        std::snprintf(item, sizeof(item), "%s %s %.3f", note.empty() ? "" : ",",
                      groups[g].c_str(),
                      hits[g] + misses[g] > 0 ? hits[g] / (hits[g] + misses[g])
                                              : 0.0);
        note += item;
    }
    return note.empty() ? note : "solve-cache hit rate by group:" + note;
}

/** The per-layer numbers the traced rounds' spans give. */
void
layerMetrics(const std::vector<Round>& traced, int threads, RunResult& out)
{
    std::vector<UnitTrace> units;
    double wall = 0.0, simMs = 0.0, cellBusyUs = 0.0, depthSum = 0.0,
           depthSamples = 0.0;
    std::vector<double> cellMs;
    for (const Round& round : traced) {
        wall += round.wallSec;
        simMs += 1e3 * round.simSec;
        for (size_t i = 0; i < round.traces.size(); ++i) {
            const Span& cell = round.traces[i].spans().front();
            cellBusyUs += cell.busyUs;
            cellMs.push_back(cell.busyUs / 1e3);
            depthSum += round.cells[i].probe.depthSum;
            depthSamples += double(round.cells[i].probe.depthSamples);
        }
        units.insert(units.end(), round.traces.begin(), round.traces.end());
    }
    const LayerTotals t = totals(units);
    const double rounds = double(traced.size());
    const auto at = [](const auto& array, Layer layer) {
        return array[size_t(layer)];
    };
    const auto perCall = [&](Layer layer) {
        const uint64_t calls = at(t.calls, layer);
        return calls > 0 ? at(t.busyUs, layer) / double(calls) : 0.0;
    };
    auto& v = out.values;
    v["rapl.on_tick_us"] = perCall(Layer::kRaplOnTick);
    v["rapl.calls"] = double(at(t.calls, Layer::kRaplOnTick)) / rounds;
    v["capping.on_tick_us"] = perCall(Layer::kCappingOnTick);
    v["capping.on_start_us"] = perCall(Layer::kCappingOnStart);
    v["capping.calls"] = double(at(t.calls, Layer::kCappingOnTick) +
                                at(t.calls, Layer::kCappingOnStart)) /
                         rounds;
    v["load.on_tick_us"] = perCall(Layer::kLoadOnTick);
    v["load.calls"] = double(at(t.calls, Layer::kLoadOnTick)) / rounds;
    v["load.queue_depth.mean"] =
        depthSamples > 0 ? depthSum / depthSamples : 0.0;
    v["sim.run_self_us_per_sim_ms"] = at(t.selfUs, Layer::kSimRun) / simMs;
    v["sim.setup_us"] = perCall(Layer::kSimSetup);
    v["harness.cell_ms_p50"] = percentile(cellMs, 50.0);
    v["harness.pool_efficiency"] =
        cellBusyUs / 1e6 / (double(threads) * wall);
    v["trace.coverage_min"] = t.minCoverage;
    for (const char* name :
         {"cluster.control_ms_p50", "cluster.step_ms_p50",
          "cluster.control_us_per_node", "cluster.shifts",
          "cluster.reports_suppressed", "cluster.rebalances_suppressed",
          "cluster.report_suppression_ratio", "cluster.budget_error_w_max",
          "net.msgs_sent", "net.msgs_delivered", "net.msgs_dropped",
          "net.msgs_rejected", "net.control_us_per_msg"})
        v[name] = 0.0;  // the node workloads never enter cluster or net
}

/** Cold set-ups per untraced run; setup_s is their median. */
constexpr int kNodeSetupProbes = 15;

struct NodeWorkload
{
    std::vector<Cell> (*cells)();
    CellCheck check;
    bool modelRatios = false;
};

/** A node workload ready for its first timed round. */
struct NodeSetUp
{
    std::unique_ptr<SweepRunner> pool;
    std::vector<Cell> cells;
    /** Digest of the warm-up cells' results. */
    uint64_t digest = cluster::kFnvOffset;
};

/**
 * Start the pool, build the cell list, then run one short warm-up cell
 * per worker so lazily built tables and cold code are paid before timing.
 */
NodeSetUp
setUpNode(const Args& args, const NodeWorkload& workload)
{
    NodeSetUp s;
    harness::SweepRunner::Options poolOptions;
    poolOptions.threads = args.threads;
    poolOptions.keepTraces = false;
    s.pool = std::make_unique<SweepRunner>(poolOptions);
    s.cells = workload.cells();
    std::vector<Cell> warm(
        s.cells.begin(),
        s.cells.begin() + std::min<long>(args.threads, long(s.cells.size())));
    for (Cell& cell : warm) {
        cell.options.durationSec = 10.0;
        cell.options.statsWindowSec = 5.0;
    }
    for (const CellRun& run :
         runRound(*s.pool, warm, args.seed, 0, false).cells)
        cluster::fnvMix(s.digest, run.digest);
    return s;
}

RunResult
runNodeWorkload(const Args& args, const NodeWorkload& workload)
{
    RunResult out;
    std::vector<double> setups;
    std::vector<uint64_t> probeDigests;
    if (!args.trace && !args.setupProbe)
        setups = timeColdSetups(args, kNodeSetupProbes, probeDigests);
    const NodeSetUp setUp = setUpNode(args, workload);
    if (args.setupProbe) {
        reportSetupDone(setUp.digest);
        return out;
    }
    // Every probe set up the same cells from the same seed.
    for (size_t k = 0; k < probeDigests.size(); ++k) {
        if (probeDigests[k] != setUp.digest)
            out.fail("set-up probe " + std::to_string(k) +
                     " warmed up to other results");
    }
    SweepRunner& pool = *setUp.pool;
    const std::vector<Cell>& cells = setUp.cells;

    // Checks every cell of @p round against the first round of its set,
    // then drops the results of any later round so memory stays flat over
    // the run.
    const auto check = [&](Round& round, const Round& reference,
                           bool traced) {
        for (size_t i = 0; i < cells.size(); ++i) {
            ++out.attempted;
            const size_t before = out.failed;
            workload.check(cells[i], round.cells[i], traced, out);
            if (out.failed == before &&
                round.cells[i].digest != reference.cells[i].digest) {
                out.fail(cells[i].label + (traced
                                               ? ": traced result differs "
                                                 "from untraced"
                                               : ": result differs from "
                                                 "the set's first round"));
            }
            if (&round != &reference)
                round.cells[i].result = ExperimentResult();
        }
    };

    // Untraced round r runs cell set r % sets; rounds [0, sets) are the
    // sets' references. A traced run stays on set 0.
    const size_t sets = args.trace ? 1 : kCellSets;
    std::vector<Round> untraced;
    std::vector<Round> traced;
    const auto runUntraced = [&]() {
        const size_t set = untraced.size() % sets;
        untraced.push_back(runRound(pool, cells, args.seed, set, false));
        check(untraced.back(), untraced[set], false);
    };
    const auto start = std::chrono::steady_clock::now();
    runUntraced();
    if (args.trace) {
        // Alternate traced and untraced rounds so both see the same host
        // conditions; their rate ratio is the cost of tracing.
        do {
            traced.push_back(runRound(pool, cells, args.seed, 0, true));
            check(traced.back(), untraced.front(), true);
            for (size_t i = 0; i < cells.size(); ++i) {
                if (traced.back().traces[i].spans().empty())
                    continue;
                const double cover = coverage(traced.back().traces[i].spans(), 0);
                if (cover < kMinCoverage)
                    out.fail(cells[i].label + ": layer spans cover only " +
                             std::to_string(cover) + " of the cell");
            }
            if (secondsSince(start) >= args.seconds)
                break;
            runUntraced();
        } while (secondsSince(start) < args.seconds);
    } else {
        // Whole cycles through the sets only, so each set weighs the same
        // and the simulated outputs of a seed do not depend on how fast
        // the host is; the first cycle's wall time sizes the run to about
        // --seconds.
        while (untraced.size() < sets)
            runUntraced();
        const size_t cycles = std::max<size_t>(
            1, size_t(std::lround(args.seconds / secondsSince(start))));
        while (untraced.size() < cycles * sets)
            runUntraced();
    }

    // A cycle runs each set once; its rate is a sample of
    // sim_s_per_wall_s.
    double wall = 0.0, simSec = 0.0, cycleWall = 0.0, cycleSim = 0.0;
    std::vector<double> msPerSimSec, cycleRates;
    std::string rates = "round rates (s/s, [set]):";
    for (size_t r = 0; r < untraced.size(); ++r) {
        const Round& round = untraced[r];
        wall += round.wallSec;
        simSec += round.simSec;
        cycleWall += round.wallSec;
        cycleSim += round.simSec;
        if (r % sets == sets - 1) {
            cycleRates.push_back(cycleSim / cycleWall);
            cycleWall = cycleSim = 0.0;
        }
        for (const CellRun& run : round.cells)
            msPerSimSec.push_back(1e3 * run.wallSec / run.simSec);
        char item[48];
        std::snprintf(item, sizeof(item), " %.0f[%zu]",
                      round.simSec / round.wallSec, r % sets);
        rates += item;
    }
    const Round& reference = untraced.front();
    auto& v = out.values;
    if (!args.trace) {
        std::vector<double> perf;
        for (size_t set = 0; set < sets; ++set) {
            for (const CellRun& run : untraced[set].cells)
                perf.push_back(run.result.aggregatePerf);
        }
        v["sim_s_per_wall_s"] = percentile(cycleRates, 50.0);
        v["period_ms_p50"] = percentile(msPerSimSec, 50.0);
        v["period_ms_p90"] = percentile(msPerSimSec, 90.0);
        v["setup_s"] = percentile(setups, 50.0);
        v["peak_rss_mb"] = peakRssMb();  // later rounds keep no results
        v["perf_under_cap"] = geomean(perf);
        // A cell is one node, so this repeats perf_under_cap's values
        // (arithmetic instead of geometric mean): every workload must
        // report every end-to-end metric.
        v["perf_per_node"] = mean(perf);
        out.notes.push_back(setupNote(setups));
        out.notes.push_back(std::to_string(untraced.size()) + " rounds of " +
                            std::to_string(cells.size()) + " cells in " +
                            std::to_string(sets) + " seed sets, " +
                            std::to_string(msPerSimSec.size()) +
                            " period samples");
        out.notes.push_back(rates);
        return out;
    }

    outcomeMetrics(cells, reference, out);
    const std::string hitRates = groupHitRates(cells, reference);
    if (!hitRates.empty())
        out.notes.push_back(hitRates);
    layerMetrics(traced, args.threads, out);
    double tracedWall = 0.0, tracedSim = 0.0;
    for (const Round& round : traced) {
        tracedWall += round.wallSec;
        tracedSim += round.simSec;
    }
    v["trace.overhead_frac"] = (simSec / wall) / (tracedSim / tracedWall) - 1.0;
    const double lowRatio =
        workload.modelRatios ? pupilRaplRatio(cells, reference, kLowCap) : 0.0;
    const double highRatio =
        workload.modelRatios ? pupilRaplRatio(cells, reference, kHighCap)
                             : 0.0;
    v["model.pupil_rapl_ratio_60w"] = lowRatio;
    v["model.pupil_rapl_ratio_220w"] = highRatio;
    if (workload.modelRatios) {
        char line[200];
        std::snprintf(line, sizeof(line),
                      "model: PUPiL/RAPL perf %.3fx at 60 W (paper %.2fx, "
                      "error %+.0f%%), %.3fx at 220 W (paper %.2fx, error "
                      "%+.0f%%)",
                      lowRatio, kPaperRatioLowCap,
                      100.0 * (lowRatio / kPaperRatioLowCap - 1.0),
                      highRatio, kPaperRatioHighCap,
                      100.0 * (highRatio / kPaperRatioHighCap - 1.0));
        out.notes.push_back(line);
    }
    out.notes.push_back(std::to_string(untraced.size()) + " untraced and " +
                        std::to_string(traced.size()) + " traced rounds of " +
                        std::to_string(cells.size()) + " cells");

    std::vector<UnitTrace> first = traced.front().traces;
    const std::string path = args.traceDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.csv";
    if (writeSpansCsv(path, first))
        out.notes.push_back("spans: " + path);
    else
        out.notes.push_back("spans: could not write " + path);
    return out;
}

}  // namespace

RunResult
runNodePaper(const Args& args)
{
    return runNodeWorkload(args, {&paperCells, &checkPaperCell, true});
}

RunResult
runNodeTenant(const Args& args)
{
    return runNodeWorkload(args, {&tenantCells, &checkTenantCell, false});
}

}  // namespace perfbench
