/**
 * @file
 * perfbench binary: runs one workload's jobs in forked children
 * through exp::runIsolated and prints raw, machine-readable records
 * (one JSON object per line) for run.py to aggregate.
 *
 *   perfbench --workload W --seed N [--seconds S] [--trace]
 *             [--workers K] [--max-jobs M] [--list-specs]
 *
 * Untraced: repeats {set-up passes, sweep} at least twice, and then
 * while another repeat fits in --seconds.  A set-up pass runs every
 * job to its first simulated instruction; the sweep runs every job to
 * completion.
 *
 * --trace: one untraced sweep, one sweep with spans around every job,
 * then the per-layer ledger (ledger.hh) over every job.
 */

#include <sys/resource.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/result_json.hh"
#include "exp/runner.hh"
#include "obs/hostinfo.hh"

#include "ledger.hh"
#include "specs.hh"

using namespace paradox;
using namespace perfbench;

namespace
{

/** Per-job wall bound: far above the longest job, short enough that
 *  a livelock cannot stall the run. */
constexpr unsigned jobTimeoutSec = 60;
/** Set-up passes per repeat: set-up is short, so it is sampled more
 *  often than the sweep to steady its median. */
constexpr unsigned setupPassesPerRep = 5;
/** Sweeps per untraced run at the least, even when one sweep alone
 *  fills --seconds: every per-job time is then a median. */
constexpr unsigned minSweeps = 2;
/** Commit-stream prefix the ledger replays per job. */
constexpr std::size_t ledgerReplayCap = 400'000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned workers = 0;
    std::size_t maxJobs = 0;
    bool trace = false;
    bool listSpecs = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "[--seconds S] [--trace] [--workers K] [--max-jobs M] "
                 "[--list-specs]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--workers")
                o.workers = unsigned(std::stoul(value()));
            else if (a == "--max-jobs")
                o.maxJobs = std::stoull(value());
            else if (a == "--trace")
                o.trace = true;
            else if (a == "--list-specs")
                o.listSpecs = true;
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** Numeric value of registry stat @p name (0 when absent). */
double
statValue(const stats::Registry &reg, const char *name)
{
    const stats::Stat *s = reg.find(name);
    if (!s)
        return 0.0;
    std::ostringstream os;
    s->printJson(os);
    return std::strtod(os.str().c_str(), nullptr);
}

/** Child side of one sweep job: run the spec, return its payload. */
std::string
sweepJob(const Job &job, bool traced)
{
    const std::int64_t t0 = nowNs();
    // The traced sweep's one child-side span: the whole call into exp.
    Spans spans;
    const int span = spans.begin("exp.runOne", -1);
    std::string registry;
    std::ostringstream counts;
    exp::ExperimentSpec spec = job.spec;
    spec.observe = [&](core::System &sys, exp::RunOutcome &) {
        const stats::Registry &reg = sys.registry();
        std::ostringstream os;
        reg.dumpJson(os);
        registry = os.str();
        counts.precision(17);
        static const char *const names[] = {
            "system.evictionCuts", "main.sb_uops",
            "main.sb_gate_stops",  "mem.l1d.hits",
            "mem.l1d.misses",      "mem.l2.hits",
            "mem.l2.misses",       "main.bpred.lookups",
            "main.bpred.mispredicts"};
        for (const char *n : names)
            counts << ",\"" << n << "\":" << statValue(reg, n);
    };
    const exp::RunOutcome out = exp::runOne(spec);
    const core::RunResult &r = out.result;
    spans.end(span, r.instructions);
    const std::string digest =
        runDigest(core::toJson(r), registry, r.memoryFingerprint,
                  out.finalValue);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const std::int64_t t1 = nowNs();

    std::ostringstream os;
    os.precision(17);
    os << "{\"halted\":" << (r.halted ? "true" : "false")
       << ",\"correct\":" << (out.correct ? "true" : "false")
       << ",\"net\":" << r.instructions << ",\"executed\":" << r.executed
       << ",\"sim_ticks\":" << r.time << ",\"avg_power\":" << r.avgPower
       << ",\"digest\":\"" << digest << "\",\"child_start_ns\":" << t0
       << ",\"child_end_ns\":" << t1 << ",\"maxrss_kb\":" << ru.ru_maxrss
       << ",\"cpu_ms\":"
       << (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
              (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-3
       << ",\"counts\":{\"checkpoints\":" << r.checkpoints
       << ",\"faults_injected\":" << r.faultsInjected
       << ",\"errors_detected\":" << r.errorsDetected
       << ",\"rollbacks\":" << r.rollbacks
       << ",\"avg_checkers_awake\":" << r.avgCheckersAwake << counts.str()
       << "}";
    if (traced)
        os << ",\"spans\":" << spans.json();
    os << "}";
    return os.str();
}

/** Raw outcome of one isolated job as a JSON object. */
std::string
jobRecord(std::size_t i, const exp::IsolatedResult &res)
{
    const int st = res.status;
    const bool exited = WIFEXITED(st);
    std::ostringstream os;
    os.precision(17);
    os << "{\"i\":" << i << ",\"wall_ms\":" << res.wallMs
       << ",\"queue_ms\":" << res.queueMs
       << ",\"exit\":" << (exited ? WEXITSTATUS(st) : -1)
       << ",\"signal\":" << (WIFSIGNALED(st) ? WTERMSIG(st) : 0)
       << ",\"child\":";
    // A payload is trusted only from a child that exited cleanly:
    // anything else may have died mid-write.
    if (exited && WEXITSTATUS(st) == 0 && !res.payload.empty())
        os << res.payload;
    else
        os << "null";
    os << "}";
    return os.str();
}

/** Reaped children's CPU seconds (user + system) so far. */
double
childrenCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

long
childrenMaxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return ru.ru_maxrss;
}

/** Run fn over every job in isolated children; print one record. */
std::vector<exp::IsolatedResult>
batch(const char *kind, std::size_t rep, std::size_t n, unsigned workers,
      const std::function<std::string(std::size_t)> &fn)
{
    exp::RunnerOptions opt;
    opt.jobs = workers;
    opt.childTimeoutSec = jobTimeoutSec;
    std::fflush(stdout);
    const double cpu0 = childrenCpuS();
    const std::int64_t t0 = nowNs();
    std::vector<exp::IsolatedResult> res = exp::runIsolated(n, fn, opt);
    const std::int64_t t1 = nowNs();
    char cpu[48];
    std::snprintf(cpu, sizeof cpu, "%.6f", childrenCpuS() - cpu0);
    std::string line = "{\"record\":\"" + std::string(kind) +
                       "\",\"rep\":" + std::to_string(rep) +
                       ",\"start_ns\":" + std::to_string(t0) +
                       ",\"end_ns\":" + std::to_string(t1) +
                       ",\"children_cpu_s\":" + cpu +
                       ",\"children_maxrss_kb\":" +
                       std::to_string(childrenMaxRssKb()) +
                       ",\"jobs\":[";
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            line += ',';
        line += jobRecord(i, res[i]);
    }
    std::printf("%s]}\n", line.c_str());
    std::fflush(stdout);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    std::vector<Job> jobs;
    try {
        jobs = makeJobs(o.workload, o.seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    if (o.maxJobs && o.maxJobs < jobs.size())
        jobs.resize(o.maxJobs);
    const unsigned workers = o.workers ? o.workers : exp::defaultJobs();
    const std::size_t n = jobs.size();

    std::printf("{\"record\":\"provenance\",\"workload\":\"%s\","
                "\"seed\":%llu,\"workers\":%u,\"jobs\":%zu,%s}\n",
                o.workload.c_str(), (unsigned long long)o.seed, workers,
                n, obs::hostJsonFields().c_str());
    for (std::size_t i = 0; i < n; ++i)
        std::printf("{\"record\":\"spec\",\"i\":%zu,\"spec\":%s}\n", i,
                    describeJob(jobs[i]).c_str());
    if (o.listSpecs)
        return 0;

    auto sweep = [&](bool traced) {
        return [&jobs, traced](std::size_t i) {
            return sweepJob(jobs[i], traced);
        };
    };

    if (o.trace) {
        const auto plain = batch("sweep", 0, n, workers, sweep(false));
        batch("traced", 0, n, workers, sweep(true));
        // A job that crashed the simulator would take the ledger's
        // spans down with it; its System::run is not re-timed.
        std::vector<bool> ran(n);
        for (std::size_t i = 0; i < n; ++i)
            ran[i] = !plain[i].crashed && WIFEXITED(plain[i].status) &&
                     WEXITSTATUS(plain[i].status) == 0;
        batch("ledger", 0, n, workers, [&](std::size_t i) {
            return ledgerJob(jobs[i], ran[i], ledgerReplayCap);
        });
        return 0;
    }

    // Set-up pass: each job stops after its first simulated instruction.
    std::vector<Job> probes = jobs;
    for (Job &j : probes)
        j.spec.limits.maxExecuted = 1;
    auto probe = [&probes](std::size_t i) {
        return sweepJob(probes[i], false);
    };

    const std::int64_t start = nowNs();
    for (std::size_t rep = 0;; ++rep) {
        const std::int64_t t0 = nowNs();
        for (unsigned p = 0; p < setupPassesPerRep; ++p)
            batch("setup", rep, n, workers, probe);
        batch("sweep", rep, n, workers, sweep(false));
        const double last = (nowNs() - t0) * 1e-9;
        const double elapsed = (nowNs() - start) * 1e-9;
        if (rep + 1 >= minSweeps && elapsed + last > o.seconds)
            break;
    }
    return 0;
}
