#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    /** Wall seconds the timed loop runs for (whole units, so it may run
        over by at most one unit). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Worker threads of the harness pool and the tree's stepping pool. */
    int threads = 4;
    /** Directory the span CSV of a traced run goes to. */
    std::string traceDir = ".";
    /** Set-up probe: run the workload's set-up only, report it done with
        reportSetupDone() and exit (see timeColdSetups()). */
    bool setupProbe = false;
};

RunResult runNodePaper(const Args& args);
RunResult runNodeTenant(const Args& args);
RunResult runCluster51k(const Args& args);

/** Wall seconds since @p start on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Wall seconds one call of @p fn takes. */
inline double
timeSeconds(const std::function<void()>& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return secondsSince(start);
}

/**
 * setup_s: time @p count cold set-ups of the workload, each in a fresh
 * process running this program with --setup-probe, from just before the
 * spawn until the process reports its set-up done. So each sample pays
 * what a real run pays before its first timed unit: process start, lazily
 * built tables, pool start, the workload's own set-up and warm-up. Returns
 * the seconds of each set-up and stores the digest each reported in
 * @p digests. Throws when a probe fails.
 */
std::vector<double> timeColdSetups(const Args& args, int count,
                                   std::vector<uint64_t>& digests);

/** Report line naming each cold set-up's seconds. */
std::string setupNote(const std::vector<double>& seconds);

/** In a set-up probe: tell the parent set-up is done, with a digest of
    what it built (compared against the parent's own set-up). */
void reportSetupDone(uint64_t digest);

/** Every layer span of a unit must account for this share of its wall
    time, or the unit fails. */
inline constexpr double kMinCoverage = 0.8;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
