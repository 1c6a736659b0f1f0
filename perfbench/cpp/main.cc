/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload <node_paper|node_tenant|cluster_51k> --seed <n>
 *             --seconds <s> --trace <0|1> [--threads <n>]
 *             [--trace-dir <dir>]
 *
 * Prints a human-readable report, then as its last line one JSON object
 * with the keys correct, attempted, failed and metrics: every end-to-end
 * metric with --trace 0, every per-layer metric with --trace 1 (see
 * perfbench/README.md). Exits 0 whenever it printed a result.
 *
 * With --setup-probe 1 it only runs the workload's set-up, prints one
 * "setup-done <digest>" line and exits: untraced runs start a few such
 * processes to time cold set-ups (setup_s).
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "report.h"

namespace {

using namespace perfbench;

int
usage(const char* message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<node_paper|node_tenant|cluster_51k> --seed <n> "
                 "--seconds <s> --trace <0|1> [--threads <n>] "
                 "[--trace-dir <dir>]\n",
                 message);
    return 2;
}

bool
parseUnsigned(const char* text, unsigned long long& value)
{
    char* end = nullptr;
    value = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + arg).c_str());
        const char* value = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed" && parseUnsigned(value, n)) {
            args.seed = n;
            haveSeed = true;
        } else if (arg == "--seconds" && parseUnsigned(value, n) && n > 0) {
            args.seconds = double(n);
            haveSeconds = true;
        } else if (arg == "--trace" && parseUnsigned(value, n) && n <= 1) {
            args.trace = n == 1;
            haveTrace = true;
        } else if (arg == "--threads" && parseUnsigned(value, n) && n > 0 &&
                   n <= 256) {
            args.threads = int(n);
        } else if (arg == "--trace-dir") {
            args.traceDir = value;
        } else if (arg == "--setup-probe" && parseUnsigned(value, n) &&
                   n <= 1) {
            args.setupProbe = n == 1;
        } else {
            return usage(("bad argument " + arg + " " + value).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");

    RunResult result;
    try {
        if (args.workload == "node_paper")
            result = runNodePaper(args);
        else if (args.workload == "node_tenant")
            result = runNodeTenant(args);
        else if (args.workload == "cluster_51k")
            result = runCluster51k(args);
        else
            return usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (args.setupProbe)
        return 0;  // reported by the workload's set-up
    std::printf("perfbench %s seed %llu, %s run\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    for (const std::string& note : result.notes)
        std::printf("%s\n", note.c_str());
    printTable(stdout, result, args.trace);
    const std::string json = resultJson(result, args.trace);
    if (json.empty())
        return 1;
    std::printf("%s\n", json.c_str());
    return 0;
}
