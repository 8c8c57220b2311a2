#!/usr/bin/env python3
"""ParaDox simulator benchmark: builds the perfbench binary from the
enclosing checkout, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fig13-sweep --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced pass and reports the
per-layer ledger.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
TRACE_DIR = BUILD / "perfbench-trace"

# A failed job ranks as if it ran for the per-job timeout
# (main.cc: jobTimeoutSec), so failing fast never improves latency.
FAILED_JOB_MS = 60_000.0

# Paper anchors for the fig13-sweep geomeans (PAPER.md, figure 13).
PAPER_ANCHORS = {"sim_power_norm": 0.78, "sim_slowdown": 1.045,
                 "sim_edp_norm": 0.85}

# Gated end-to-end metrics.  Host time here is CPU time (user + system
# of the forked job processes): on a shared VM the wall clock loses a
# varying share to other tenants (steal), CPU time does not.
END_TO_END_UNITS = {
    "sweep_cpu_s": "s",
    "sim_minst_per_s": "Minst/s",
    "job_cpu_ms_p50": "ms",
    "job_cpu_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them but not gated: the wall-clock forms (what a user
# waits for; too noisy on a shared host to gate), the failure ratio
# (0 once the simulator's known crashes are fixed) and the fig13-sweep
# simulated figures (gated exactly by the digest instead).
REPORTED_UNITS = {
    "sweep_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_wall_s": "s",
    "jobs_failed_ratio": "ratio",
    "sim_power_norm": "ratio",
    "sim_slowdown": "ratio",
    "sim_edp_norm": "ratio",
}

LAYER_SPANS = {
    "isa.engine_ns": "isa.engine",
    "isa.run_decoded_ns": "isa.run_decoded",
    "mem.hierarchy_ns": "mem.hierarchy",
    "mem.tlb_ns": "mem.tlb",
    "cpu.bpred_ns": "cpu.bpred",
    "cpu.main_core_ns": "cpu.main_core",
    "core.log_ns": "core.log",
    "core.checker_ns": "core.checker",
    "core.checker_faulty_ns": "core.checker_faulty",
    "mem.secded_ns_per_word": "mem.secded",
    "core.system_ns": "core.system",
}
SETUP_SPANS = {
    "workloads.build_ms": "workloads.build",
    "isa.decode_ms": "isa.decode",
    "analysis.vuln_ms": "analysis.vuln",
    "core.system_init_ms": "core.system_init",
}
PER_LAYER_UNITS = dict(
    {name: "ns/inst" for name in LAYER_SPANS},
    **{"mem.secded_ns_per_word": "ns/word", "ledger_coverage": "ratio"},
    **{name: "ms/job" for name in SETUP_SPANS},
    **{
        "exp.fork_ms": "ms",
        "exp.queue_wait_ms_p50": "ms",
        "exp.worker_util": "ratio",
        "main.sb_uops_ratio": "ratio",
        "main.sb_gate_stops": "count",
        "core.checkpoints": "count",
        "core.eviction_cuts": "count",
        "core.wasted_exec_ratio": "ratio",
        "core.checkers_awake_avg": "checkers",
        "faults.injected": "count",
        "faults.detections": "count",
        "faults.rollbacks": "count",
        "mem.l1d.miss_ratio": "ratio",
        "mem.l2.miss_ratio": "ratio",
        "cpu.bpred.mispredict_ratio": "ratio",
        "trace.overhead_s": "s",
    },
)


def build():
    """Configure (a no-op when nothing changed), then bring the binary
    up to date."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over the simulator sources the binary was built from (the
    checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


def run_binary(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.max_jobs:
        cmd += ["--max-jobs", str(args.max_jobs)]
    if args.list_specs:
        cmd.append("--list-specs")
    # Own process group, so a timeout also stops the forked jobs.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return [json.loads(line) for line in out.splitlines() if line]


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def classify(job):
    """ok | crash | timeout | limit | wrong for one raw job record."""
    child = job["child"]
    if child is None:
        return "timeout" if job["signal"] == signal.SIGALRM else "crash"
    if not child["halted"]:
        return "limit"
    return "ok" if child["correct"] else "wrong"


def describe_failure(spec, status, job):
    how = (f"signal {job['signal']}" if job["signal"]
           else f"exit {job['exit']}")
    return (f"{status} job {job['i']}: kernel={spec['kernel']} "
            f"mode={spec['mode']} config={spec['config']} "
            f"seed={spec['seed']} chip_seed={spec['chip_seed']} ({how})")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig13_figures(specs, jobs):
    """Geomean power / slowdown / EDP of paradox+DVFS over baseline,
    over kernels whose pair of runs both completed (None if none did)."""
    runs = {}
    for job in jobs:
        if classify(job) == "ok":
            spec = specs[job["i"]]
            runs[(spec["kernel"], spec["mode"])] = job["child"]
    power, slow, edp = [], [], []
    for (kernel, mode), base in runs.items():
        para = runs.get((kernel, "paradox"))
        if mode != "baseline" or para is None:
            continue
        p = para["avg_power"] / base["avg_power"]
        t = para["sim_ticks"] / base["sim_ticks"]
        power.append(p)
        slow.append(t)
        edp.append(p * t * t)
    if not power:
        return None
    return {"sim_power_norm": geomean(power), "sim_slowdown": geomean(slow),
            "sim_edp_norm": geomean(edp), "pairs": len(power)}


def job_digests(jobs):
    """Per-job simulated-output digest; a failed job digests as its
    failure class, which repeats exactly when the failure is
    deterministic."""
    return [job["child"]["digest"] if job["child"] else classify(job)
            for job in jobs]


def workload_digest(digests):
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def wall_s(rec):
    return (rec["end_ns"] - rec["start_ns"]) * 1e-9


def per_job_median(sweeps, value):
    """One sample per job: its median over the sweeps, so a single slow
    repeat cannot move a percentile.  A job that failed in any sweep
    ranks as FAILED_JOB_MS."""
    out = []
    for i in range(len(sweeps[0]["jobs"])):
        jobs = [rec["jobs"][i] for rec in sweeps]
        out.append(FAILED_JOB_MS
                   if any(classify(j) != "ok" for j in jobs)
                   else statistics.median(map(value, jobs)))
    return out


def setup_cpu_s(setups):
    """Set-up CPU seconds summed over jobs, each job's median over the
    set-up passes.  A probe's CPU time ends before its process exits,
    so it covers what runs before the first simulated instruction."""
    total_ms = 0.0
    for i in range(len(setups[0]["jobs"])):
        samples = [r["jobs"][i]["child"]["cpu_ms"] for r in setups
                   if r["jobs"][i]["child"]]
        if samples:
            total_ms += statistics.median(samples)
    return total_ms * 1e-3


def sweep_metrics(sweeps, setups):
    """Gated end-to-end metrics, then the wall-clock forms."""
    per_rep_rate = []
    for rec in sweeps:
        done = [j["child"] for j in rec["jobs"] if classify(j) == "ok"]
        per_rep_rate.append(sum(c["net"] for c in done)
                            / sum(c["cpu_ms"] * 1e-3 for c in done) / 1e6)
    cpu_ms = per_job_median(sweeps, lambda j: j["child"]["cpu_ms"])
    wall_ms = per_job_median(sweeps, lambda j: j["wall_ms"])
    gated = {
        "sweep_cpu_s": statistics.median(r["children_cpu_s"]
                                         for r in sweeps),
        "sim_minst_per_s": statistics.median(per_rep_rate),
        "job_cpu_ms_p50": percentile(cpu_ms, 50),
        "job_cpu_ms_p90": percentile(cpu_ms, 90),
        "setup_s": setup_cpu_s(setups),
        "peak_rss_mb": max(r["children_maxrss_kb"]
                           for r in sweeps + setups) / 1024,
    }
    wall = {
        "sweep_s": statistics.median(wall_s(r) for r in sweeps),
        "job_ms_p50": percentile(wall_ms, 50),
        "job_ms_p90": percentile(wall_ms, 90),
        "setup_wall_s": statistics.median(
            sum(j["wall_ms"] for j in r["jobs"]) * 1e-3 for r in setups),
    }
    return gated, wall


def count_metrics(specs, jobs):
    done = [j["child"] for j in jobs if classify(j) == "ok"]

    def total(key):
        return sum(c["counts"][key] for c in done)

    def ratio(num, *den):
        d = sum(map(total, den))
        return total(num) / d if d else 0.0

    executed = sum(c["executed"] for c in done)
    net = sum(c["net"] for c in done)
    awake = [j["child"]["counts"]["avg_checkers_awake"] for j in jobs
             if classify(j) == "ok" and specs[j["i"]]["mode"] != "baseline"]
    return {
        "main.sb_uops_ratio": total("main.sb_uops") / executed,
        "main.sb_gate_stops": total("main.sb_gate_stops"),
        "core.checkpoints": total("checkpoints"),
        "core.eviction_cuts": total("system.evictionCuts"),
        "core.wasted_exec_ratio": executed / net - 1.0,
        "core.checkers_awake_avg": statistics.fmean(awake) if awake else 0.0,
        "faults.injected": total("faults_injected"),
        "faults.detections": total("errors_detected"),
        "faults.rollbacks": total("rollbacks"),
        "mem.l1d.miss_ratio": ratio("mem.l1d.misses", "mem.l1d.hits",
                                    "mem.l1d.misses"),
        "mem.l2.miss_ratio": ratio("mem.l2.misses", "mem.l2.hits",
                                   "mem.l2.misses"),
        "cpu.bpred.mispredict_ratio": ratio("main.bpred.mispredicts",
                                            "main.bpred.lookups"),
    }


def faulty(spec):
    """True when the job's checkers replay with injectors active."""
    return spec["fault_rate"] > 0 or spec["chip_seed"] or spec["dvfs"]


def ledger_problems(ledger, plain):
    """One message per ledger check that failed.  A ledger job that
    died takes its layer checks with it, so it is a failure of the
    run, never a skipped job."""
    problems = []
    for job in ledger["jobs"]:
        child = job["child"]
        if child is None:
            how = (f"signal {job['signal']}" if job["signal"]
                   else f"exit {job['exit']}")
            problems.append(f"LEDGER FAILURE job {job['i']} ({how})")
            continue
        for err in child["errors"]:
            problems.append(f"LEDGER ERROR job {job['i']}: {err}")
        ref = plain["jobs"][job["i"]]
        if child["digest"] and child["digest"] != ref["child"]["digest"]:
            problems.append(f"LEDGER DIGEST MISMATCH job {job['i']}")
    return problems


def ledger_metrics(specs, ledger, plain):
    """Per-layer host time from the ledger's spans (ledger.cc).
    ledger_coverage is computed only when every ledger job reported;
    otherwise it reads 0."""
    dur, work = {}, {}
    predicted_ns = system_ns = 0.0
    for job, ref in zip(ledger["jobs"], plain["jobs"]):
        child = job["child"]
        if child is None:
            continue
        per = {}  # this job's ns per work unit, by span name
        for name, _parent, start, end, units in child["spans"]:
            dur[name] = dur.get(name, 0) + (end - start)
            work[name] = work.get(name, 0) + units
            per[name] = (end - start) / units if units else 0.0
        if "core.system" not in per:
            continue
        spec = specs[job["i"]]
        # Sum of layer self times per instruction: the main core's
        # advance() includes its hierarchy and predictor calls.  The
        # system commits the main.sb_uops share of its instructions in
        # batches (one runDecoded call), the rest one Engine::step at
        # a time.
        run = ref["child"]
        batched = run["counts"]["main.sb_uops"] / run["executed"]
        layer = (batched * per["isa.run_decoded"]
                 + (1 - batched) * per["isa.engine"]
                 + per["mem.tlb"] + per["cpu.main_core"])
        if spec["mode"] != "baseline":
            checker = ("core.checker_faulty" if faulty(spec)
                       else "core.checker")
            layer += per["core.log"] + per[checker]
        predicted_ns += layer * ref["child"]["executed"]
        system_ns += per["core.system"] * child["net"]
    def per_unit(span):
        return dur[span] / work[span] if work.get(span) else 0.0

    m = {name: per_unit(span) for name, span in LAYER_SPANS.items()}
    m.update({name: per_unit(span) / 1e6
              for name, span in SETUP_SPANS.items()})
    complete = all(job["child"] for job in ledger["jobs"])
    m["ledger_coverage"] = (predicted_ns / system_ns
                            if complete and system_ns else 0.0)
    return m


def runner_metrics(rec, workers):
    done = [j for j in rec["jobs"] if j["child"]]
    overhead = [j["wall_ms"] - (j["child"]["child_end_ns"]
                                - j["child"]["child_start_ns"]) * 1e-6
                for j in done]
    busy = sum(j["wall_ms"] for j in rec["jobs"]) * 1e-3
    return {
        "exp.fork_ms": statistics.median(overhead),
        "exp.queue_wait_ms_p50": statistics.median(
            j["queue_ms"] for j in rec["jobs"]),
        "exp.worker_util": busy / (workers * wall_s(rec)),
    }


def write_spans(path, traced, ledger):
    """Spans of the traced sweep and the ledger, one JSON per line.
    Each job gets a root span (fork to reap, measured by the parent);
    the child's spans hang below it and share its job id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for kind, rec in (("traced", traced), ("ledger", ledger)):
            for job in rec["jobs"]:
                jid = f"{kind}/{job['i']}"
                start = rec["start_ns"] + int(job["queue_ms"] * 1e6)
                spans = [["exp.job", -1, start,
                          start + int(job["wall_ms"] * 1e6), 1]]
                if job["child"]:
                    spans += [[n, p + 1, a, b, w]
                              for n, p, a, b, w in job["child"]["spans"]]
                for sid, (name, parent, a, b, w) in enumerate(spans):
                    out.write(json.dumps({
                        "job": jid, "span": sid, "parent": parent,
                        "name": name, "start_ns": a, "end_ns": b,
                        "work": w}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="fig13-sweep | fault-storm | campaign-short")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=0,
                    help="concurrent jobs (default: all cores)")
    ap.add_argument("--max-jobs", type=int, default=0,
                    help="run only the first N jobs (tests)")
    ap.add_argument("--list-specs", action="store_true",
                    help="print the generated job specs and exit")
    args = ap.parse_args()

    build()
    records = run_binary(args)
    prov = next(r for r in records if r["record"] == "provenance")
    specs = {r["i"]: r["spec"] for r in records if r["record"] == "spec"}
    if args.list_specs:
        for i in sorted(specs):
            print(json.dumps(specs[i], sort_keys=True))
        return 0

    def kind(name):
        return [r for r in records if r["record"] == name]

    sweeps = kind("sweep")
    workers = prov["workers"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"jobs={prov['jobs']} workers={workers} (closed loop: each "
          f"worker forks the next job when its last one is reaped)")
    print(f"host: cpu={prov['cpu']!r} cores={prov['cores']} "
          f"compiler={prov['compiler']!r} flags={prov['flags']!r} "
          f"git={prov['git']} sources={source_digest()}")
    print("command: python3 perfbench/run.py " + " ".join(sys.argv[1:]))

    # Correctness: no silent corruption, and every repeat (and every
    # traced pass) reproduces the first sweep's simulated outputs.
    correct = identical = True
    reference = job_digests(sweeps[0]["jobs"])
    failures = {}
    for rec in sweeps + kind("traced"):
        for job in rec["jobs"]:
            status = classify(job)
            if status != "ok":
                failures[job["i"]] = describe_failure(
                    specs[job["i"]], status, job)
            if status == "wrong":
                correct = False
        if job_digests(rec["jobs"]) != reference:
            print(f"DIGEST MISMATCH in {rec['record']} pass {rec['rep']}")
            correct = identical = False
    attempted = sum(len(r["jobs"]) for r in sweeps)
    failed = sum(classify(j) != "ok" for r in sweeps for j in r["jobs"])
    for i in sorted(failures):
        silent = failures[i].startswith("wrong")
        print(("SILENT CORRUPTION: " if silent else "failure: ")
              + failures[i])
    print(f"digest {args.workload}: {workload_digest(reference)} "
          f"({len(sweeps)} sweep(s) + {len(kind('traced'))} traced "
          f"pass(es) identical: {identical})")

    if args.trace:
        plain, traced = sweeps[0], kind("traced")[0]
        ledger = kind("ledger")[0]
        for problem in ledger_problems(ledger, plain):
            print(problem)
            correct = False
        metrics = ledger_metrics(specs, ledger, plain)
        metrics.update(runner_metrics(plain, workers))
        metrics.update(count_metrics(specs, plain["jobs"]))
        metrics["trace.overhead_s"] = wall_s(traced) - wall_s(plain)
        units = PER_LAYER_UNITS
        span_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(span_path, traced, ledger)
        print(f"spans: {span_path.relative_to(ROOT)}")
    else:
        metrics, reported = sweep_metrics(sweeps, kind("setup"))
        units = END_TO_END_UNITS
        reported["jobs_failed_ratio"] = failed / attempted
        figs = (fig13_figures(specs, sweeps[0]["jobs"])
                if args.workload == "fig13-sweep" else None)
        if figs:
            reported.update({k: figs[k] for k in PAPER_ANCHORS})
        print(f"sweeps={len(sweeps)} set-up passes={len(kind('setup'))}; "
              f"job percentiles over {len(specs)} jobs, each its median "
              f"over the sweeps (failed jobs rank as "
              f"{FAILED_JOB_MS:.0f} ms)")
        for name, value in reported.items():
            anchor = PAPER_ANCHORS.get(name)
            note = (f"  paper {anchor} (model checked against the "
                    f"paper's aggregates only)" if anchor else "")
            print(f"{name:28s} {value:14.6f} {REPORTED_UNITS[name]}{note}")
        if figs:
            print(f"  over {figs['pairs']} kernels whose baseline and "
                  f"paradox runs both completed")

    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    # A wrong result from a completed run is silent corruption.
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
