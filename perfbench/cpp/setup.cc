/**
 * @file
 * Cold set-up probes: setup_s is measured over fresh processes, so every
 * sample pays process start, lazily built tables and pool start, not only
 * the warm part of a set-up repeated inside one process.
 */
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

/** Path of this program's executable. */
std::string
selfPath()
{
    char path[4096];
    const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0)
        throw std::runtime_error("set-up probe: cannot find own executable");
    return std::string(path, size_t(n));
}

/**
 * Run one probe: spawn this program with --setup-probe, read its report
 * line, wait for it to exit. Returns the seconds from spawn to report.
 */
double
runProbe(const std::string& exe, const Args& args, uint64_t& digest)
{
    const std::vector<std::string> argv = {
        exe,
        "--workload", args.workload,
        "--seed", std::to_string(args.seed),
        "--seconds", std::to_string(int(args.seconds)),
        "--trace", "0",
        "--threads", std::to_string(args.threads),
        "--setup-probe", "1",
    };
    std::vector<char*> cargv;
    for (const std::string& arg : argv)
        cargv.push_back(const_cast<char*>(arg.c_str()));
    cargv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("set-up probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    const auto start = std::chrono::steady_clock::now();
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                    cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (spawned != 0) {
        close(fds[0]);
        throw std::runtime_error("set-up probe: spawn failed");
    }

    // The report is the first line; the clock stops when it arrives.
    std::string output;
    double seconds = -1.0;
    char buf[256];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        output.append(buf, size_t(n));
        if (seconds < 0.0 && output.find('\n') != std::string::npos)
            seconds = secondsSince(start);
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (seconds < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(output.c_str(), "setup-done %" SCNx64, &digest) != 1)
        throw std::runtime_error("set-up probe failed: " + output);
    return seconds;
}

}  // namespace

std::vector<double>
timeColdSetups(const Args& args, int count, std::vector<uint64_t>& digests)
{
    const std::string exe = selfPath();
    std::vector<double> seconds;
    digests.clear();
    for (int i = 0; i < count; ++i) {
        uint64_t digest = 0;
        seconds.push_back(runProbe(exe, args, digest));
        digests.push_back(digest);
    }
    return seconds;
}

std::string
setupNote(const std::vector<double>& seconds)
{
    std::string note = std::to_string(seconds.size()) + " cold set-ups (s):";
    for (const double s : seconds) {
        char item[32];
        std::snprintf(item, sizeof(item), " %.4f", s);
        note += item;
    }
    return note;
}

void
reportSetupDone(uint64_t digest)
{
    std::printf("setup-done %016" PRIx64 "\n", digest);
    std::fflush(stdout);
}

}  // namespace perfbench
