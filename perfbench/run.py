#!/usr/bin/env python3
"""End-to-end campaign benchmark for mcs_synth, with a traced per-layer profile.

Run from the repository root:

    python3 perfbench/run.py --workload fig9ab_os_or --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (mcs_synth plus the
perfbench_layers harness) into .bench_build/; later calls reuse that build.

--trace 0 drives the shipped mcs_synth on the workload with observability
off and prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics instead: it alternates untraced and traced (--trace/--metrics)
campaigns, derives span self times and counters from the program's own
trace and metrics files, and adds the harness's spans around each layer's
public functions (perfbench_layers).  Every campaign's paper outputs are
checked against perfbench/reference.json; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

Workloads, seeds and the outputs check are described in perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(REPO_ROOT, ".bench_build", "work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# Pinned campaign seeds: --seed n runs campaign_seed 1 + n % PINNED_SEEDS,
# every one of which has a recorded reference.
PINNED_SEEDS = 16
# The run stops starting campaigns past this many seconds, so that it ends
# well inside 180 s even on a machine far slower than rep_s assumes.
HARD_STOP_S = 140.0
CHILD_TIMEOUT_S = 120.0
TRACE_PAIRS = 2
# Campaigns with this many jobs take job_tail_s over per-job medians.
TAIL_MIN_JOBS = 100
# Spans the program records only on every obs::kAnalysisSampleEvery-th
# analysis run of a workspace.
SAMPLED_SPANS = ("mcs.run", "mcs.iteration", "rta.pass")
VALIDATION_SCENARIOS = "drop, delay, babble, drift, exec, storm"

PER_LAYER_UNITS = {
    "gen.generate_s": "s", "core.workspace_build_s": "s", "core.scratch_bytes_max": "bytes",
    "core.sf_s": "s", "core.os_s": "s", "core.or_s": "s", "core.sa_s": "s",
    "core.hopa_s": "s", "core.hopa_runs": "count", "core.hopa_iterations": "count",
    "core.hopa_share": "ratio", "core.sa_share": "ratio",
    "core.evals": "count", "core.eval_cache_hit_ratio": "ratio",
    "core.eval_cache_lookups": "count",
    "core.mcs_runs": "count", "core.mcs_iterations": "count",
    "core.mcs_sampled_runs": "count", "core.mcs_s_est": "s", "core.rta_pass_s_est": "s",
    "core.mcs_iter_self_s_est": "s", "core.cold_mcs_s": "s",
    "core.delta_replays": "count", "core.delta_replay_ratio": "ratio",
    "core.delta_fallbacks": "count", "core.intra_skips": "count",
    "core.schedule_memo_hits": "count",
    "sim.simulate_s": "s", "sim.check_bounds_s": "s", "sim.faults_injected": "count",
    "sim.share": "ratio",
    "exp.job_busy_s": "s", "exp.worker_idle_frac": "ratio",
    "exp.worker_idle_frac_2w": "ratio", "exp.report_write_s": "s",
    "exp.journal_append_s": "s", "exp.journal_records": "count",
    "obs.trace_overhead_frac": "ratio",
}

# rep_s is the nominal wall time of one campaign on a 4-core x86-64 VM; it
# only sets how many campaigns fit into --seconds, never which ones run.
WORKLOADS = {
    "fig9ab_os_or": {
        "kind": "campaign", "suite": "fig9ab", "seeds_per_dim": 2,
        "suite_base_seed": 1000, "strategies": "sf, os, or", "jobs": 2,
        "journal": True, "rep_s": 2.8, "setup_reps": 30,
    },
    "fig9c_anneal": {
        "kind": "campaign", "suite": "fig9c", "seeds_per_dim": 2,
        "suite_base_seed": 9000, "strategies": "sf, sas, sar", "jobs": 2,
        "journal": False, "rep_s": 1.8, "setup_reps": 20,
    },
    "validation_faults": {
        "kind": "validation", "suite": "validation", "seeds_per_dim": 5000,
        "suite_base_seed": 7000, "strategy": "sf", "jobs": 1,
        "journal": False, "rep_s": 4.0, "setup_reps": 1,
    },
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def log(message):
    print(message, flush=True)


# ---- build ---------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_ROOT, "src"))):
        fail("no mcs sources next to perfbench/ (expected CMakeLists.txt and src/ in %s)"
             % REPO_ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    synth = os.path.join(BUILD_DIR, "mcs", "mcs_synth")
    layers = os.path.join(BUILD_DIR, "perfbench_layers")
    for binary in (synth, layers):
        if not os.access(binary, os.X_OK):
            fail("build produced no " + binary)
    return synth, layers


# ---- specs ---------------------------------------------------------------

def spec_text(name, wl, suite_base_seed, campaign_seed, jobs):
    lines = [
        "name = " + name,
        "suite = " + wl["suite"],
        "seeds_per_dim = %d" % wl["seeds_per_dim"],
        "suite_base_seed = %d" % suite_base_seed,
        "campaign_seed = %d" % campaign_seed,
        "jobs = %d" % jobs,
        "job_timeout_ms = 0",
    ]
    if wl["kind"] == "campaign":
        lines.append("strategies = " + wl["strategies"])
    else:
        lines += ["strategy = " + wl["strategy"],
                  "scenarios = " + VALIDATION_SCENARIOS,
                  "max_sim_events = 2000000"]
    return "\n".join(lines) + "\n"


def write_spec(name, wl, suite_base_seed, campaign_seed, jobs):
    path = os.path.join(WORK_DIR, "%s.w%d.%s" % (name, jobs, wl["kind"]))
    with open(path, "w") as f:
        f.write(spec_text(name, wl, suite_base_seed, campaign_seed, jobs))
    return path


# ---- running mcs_synth -----------------------------------------------------

class Rep:
    """One mcs_synth campaign: its report, resource use and verdict."""

    def __init__(self):
        self.ok = False
        self.error = ""
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0
        self.report = None
        self.trace_path = None
        self.metrics_path = None
        self.seconds = []
        self.done = 0
        self.layers = None


def run_synth(synth, wl, spec, tag, trace=False, env=None):
    rep = Rep()
    report = os.path.join(WORK_DIR, tag + ".report.json")
    journal = os.path.join(WORK_DIR, tag + ".journal")
    out_path = os.path.join(WORK_DIR, tag + ".out")
    for path in (report, journal):
        if os.path.exists(path):
            os.remove(path)
    cmd = [synth, "--campaign" if wl["kind"] == "campaign" else "--validate", spec,
           "--report-json", report]
    if wl["journal"]:
        cmd += ["--journal", journal]
    if trace:
        rep.trace_path = os.path.join(WORK_DIR, tag + ".trace.json")
        rep.metrics_path = os.path.join(WORK_DIR, tag + ".metrics.json")
        cmd += ["--trace", rep.trace_path, "--metrics", rep.metrics_path]
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
        # Reap with wait4 for the child's own rusage; a timer kills a hung child.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        rep.wall_s = time.perf_counter() - start
        killer.cancel()
        killer.join()
        code = proc.returncode = os.waitstatus_to_exitcode(status)
    rep.cpu_s = usage.ru_utime + usage.ru_stime
    rep.maxrss_mb = usage.ru_maxrss / 1024.0
    try:
        with open(report) as f:
            rep.report = json.load(f)
    except (OSError, ValueError) as e:
        rep.error = "no readable report (exit %s): %s" % (code, e)
        return rep
    # Exit 1 from a validation run means "completed with fault-free bound
    # violations" (a known analysis defect), not a crash.
    violations = rep.report.get("totals", {}).get("bound_violations", 0)
    if code == 0 or (code == 1 and wl["kind"] == "validation" and violations > 0):
        rep.ok = True
    else:
        rep.error = "mcs_synth exited with %s (see %s)" % (code, out_path)
    return rep


# ---- paper outputs and the reference -------------------------------------

def paper_rows(kind, report):
    """The paper outputs of a report, one row per job.  Evaluation, cache and
    delta counters, wall times and the signature are left out on purpose."""
    rows = []
    for job in report["jobs"]:
        if kind == "campaign":
            outcomes = [[o["strategy"], o["schedulable"], o["skipped"], o["delta_f1"],
                         o["delta_f2"], o["s_total"], o["s_total_before"]]
                        for o in job["outcomes"]]
            rows.append([job["job"], job["system_seed"], job["state"], outcomes])
        else:
            violations = [[v["activity"], v["simulated"], v["bound"]]
                          for v in job["violations"]]
            scenarios = [[s["scenario"], s["sim_status"], s["deadline_misses"],
                          s["messages_lost"], s["config_violations"],
                          s["faults_injected"], s["max_out_can"], s["max_out_ttp"],
                          s["queue_over_bound"], s["worst_lateness"]]
                         for s in job["scenarios"]]
            rows.append([job["job"], job["system_seed"], job["status"], job["converged"],
                         job["schedulable"], job["checked"], job["skip_reason"],
                         violations, scenarios])
    return rows


def digest(rows):
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


CHUNK_JOBS = 250


def reference_entry(kind, rows):
    entry = {"digest": digest(rows), "jobs": len(rows)}
    if kind == "campaign":
        entry["rows"] = rows
    else:
        entry["chunk_jobs"] = CHUNK_JOBS
        entry["chunks"] = [digest(rows[i:i + CHUNK_JOBS])[:16]
                           for i in range(0, len(rows), CHUNK_JOBS)]
        entry["violations"] = [[row[1]] + v for row in rows for v in row[7]]
    return entry


def compare(kind, rows, ref):
    """Returns "" when rows match the reference entry, else what differs."""
    if len(rows) != ref["jobs"]:
        return "%d jobs, reference has %d" % (len(rows), ref["jobs"])
    if kind == "campaign":
        for got, want in zip(rows, ref["rows"]):
            if got != want:
                return "job %s: got %s, reference %s" % (got[0], json.dumps(got),
                                                         json.dumps(want))
        return ""
    violations = [[row[1]] + v for row in rows for v in row[7]]
    if violations != ref["violations"]:
        for got, want in zip(violations + [None], ref["violations"] + [None]):
            if got != want:
                return "fault-free bound violations differ: got %s, reference %s" % (
                    json.dumps(got), json.dumps(want))
    if digest(rows) == ref["digest"]:
        return ""
    step = ref["chunk_jobs"]
    for ci, want in enumerate(ref["chunks"]):
        if digest(rows[ci * step:(ci + 1) * step])[:16] != want:
            return "jobs %d..%d differ from the reference" % (ci * step, (ci + 1) * step - 1)
    return "digest differs"


def load_reference(workload, key):
    try:
        with open(REFERENCE) as f:
            return json.load(f)["workloads"][workload].get(key)
    except (OSError, ValueError, KeyError):
        return None


def delta_off_env():
    env = dict(os.environ)
    env["MCS_DELTA"] = "0"
    env.pop("MCS_DELTA_CHECK", None)
    return env


# ---- statistics ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct, N)."""
    n = len(values)
    if n < 11:
        return (max(values) if values else 0.0), 100.0, n
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def job_tail(per_campaign):
    """job_tail_s over a run's campaigns, which all run the same jobs.
    Campaigns of at least TAIL_MIN_JOBS jobs: each job's median time over
    the campaigns, then the tail over those jobs (a single slow sample of a
    sub-millisecond job is a scheduler hiccup, not a property of the job).
    Smaller campaigns: the tail over every job sample of every campaign."""
    if len(per_campaign[0]) >= TAIL_MIN_JOBS:
        return tail([median(times) for times in zip(*per_campaign)])
    return tail([s for seconds in per_campaign for s in seconds])


def job_seconds(report):
    return [job["seconds"] for job in report["jobs"]]


def settled_ok(kind, job):
    return job["state"] == "done" if kind == "campaign" else job["status"] == "ok"


# ---- trace analysis --------------------------------------------------------

def span_profile(events, later_weight):
    """Per span name: inclusive seconds, self seconds and count, from Chrome
    trace events.  The analysis spans exist only on sampled runs (run index
    % obs::kAnalysisSampleEvery == 0).  Run 0 of every workspace is always
    sampled and counts once; every other sampled mcs.run stands for
    `later_weight` runs, and its mcs.iteration/rta.pass children with it.
    Sampled totals are scaled by those weights (they are estimates, *_est),
    and a parent subtracts a child at the child's weight."""
    totals = {}
    stacks = {}
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks.setdefault(ev["tid"], [])
        if ph == "B":
            name = ev["name"]
            if name == "mcs.run":
                weight = 1.0 if ev.get("args", {}).get("v") == 0 else later_weight
            elif name in SAMPLED_SPANS and stack:
                weight = stack[-1][3]
            else:
                weight = 1.0
            stack.append([name, ev["ts"], 0.0, weight])
            continue
        name, begin, child, weight = stack.pop()
        dur = (ev["ts"] - begin) / 1e6
        entry = totals.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
        entry["total"] += dur * weight
        entry["self"] += (dur - child) * weight
        entry["count"] += 1
        if stack:
            parent = stack[-1]
            parent[2] += dur * weight / parent[3]
    return totals


def load_metrics(path):
    with open(path) as f:
        return {m["name"]: m for m in json.load(f)["metrics"]}


def ratio(part, whole):
    return part / whole if whole else 0.0


def traced_layers(rep, workers):
    """Per-layer numbers of one traced mcs_synth campaign, plus its spans."""
    metrics = load_metrics(rep.metrics_path)
    with open(rep.trace_path) as f:
        events = json.load(f)["traceEvents"]

    def count(name):
        m = metrics.get(name)
        return float(m["value"]) if m else 0.0

    hist = metrics.get("mcs.iterations_per_run", {})
    mcs_runs = float(hist.get("count", 0))
    sampled = [ev.get("args", {}).get("v") for ev in events
               if ev.get("name") == "mcs.run" and ev.get("ph") == "B"]
    first = sampled.count(0)
    spans = span_profile(events, ratio(mcs_runs - first, len(sampled) - first))

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    busy = total("job.attempt")
    hits = count("eval_cache.hits")
    lookups = hits + count("eval_cache.misses")
    replays = count("delta.delta_runs")
    fallbacks = count("delta.fallbacks")
    jobs = rep.report["jobs"]
    layers = {
        "core.sf_s": total("sf.run"),
        "core.os_s": total("os.run"),
        "core.or_s": total("or.run"),
        "core.sa_s": total("sa.run"),
        "core.hopa_s": total("hopa.run"),
        "core.hopa_runs": float(spans.get("hopa.run", {}).get("count", 0)),
        "core.hopa_iterations": float(spans.get("hopa.iteration", {}).get("count", 0)),
        "core.hopa_share": ratio(total("hopa.run"), busy),
        "core.sa_share": ratio(total("sa.run"), busy),
        "core.evals": float(sum(j["metrics"]["evals"] for j in jobs)),
        "core.eval_cache_hit_ratio": ratio(hits, lookups),
        "core.eval_cache_lookups": lookups,
        "core.mcs_runs": mcs_runs,
        "core.mcs_iterations": float(hist.get("sum", 0)),
        "core.mcs_sampled_runs": float(len(sampled)),
        "core.mcs_s_est": total("mcs.run"),
        "core.rta_pass_s_est": total("rta.pass"),
        "core.mcs_iter_self_s_est": spans.get("mcs.iteration", {}).get("self", 0.0),
        "core.delta_replays": replays,
        "core.delta_replay_ratio": ratio(replays, replays + fallbacks),
        "core.delta_fallbacks": fallbacks,
        "core.intra_skips": count("delta.intra_skips"),
        "core.schedule_memo_hits": count("delta.schedule_memo_hits"),
        "core.scratch_bytes_max": float(metrics.get("workspace.scratch_bytes_max",
                                                    {}).get("value", 0)),
        "sim.faults_injected": float(sum(s["faults_injected"] for j in jobs
                                         for s in j.get("scenarios", []))),
        "exp.job_busy_s": busy,
        "exp.worker_idle_frac": 1.0 - ratio(busy, workers * rep.report["wall_seconds"]),
        "exp.journal_records": count("journal.appends"),
    }
    return layers, spans


# ---- the benchmark ---------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-base-seed", type=int,
                        help="generator seed origin (default: the workload's)")
    parser.add_argument("--campaign-seed", type=int,
                        help="campaign RNG seed (default: 1 + seed %% %d)" % PINNED_SEEDS)
    parser.add_argument("--pin", action="store_true",
                        help="record perfbench/reference.json under MCS_DELTA=0 for "
                             "every pinned seed, after checking the default path "
                             "matches it")
    args = parser.parse_args()
    if not args.pin and not args.workload:
        parser.error("--workload is required")

    synth, layers_bin = build()
    if os.path.isdir(WORK_DIR):
        shutil.rmtree(WORK_DIR)
    os.makedirs(WORK_DIR)
    if args.pin:
        return pin(synth, [args.workload] if args.workload else sorted(WORKLOADS))

    name = args.workload
    wl = WORKLOADS[name]
    base = wl["suite_base_seed"] if args.suite_base_seed is None else args.suite_base_seed
    cseed = 1 + args.seed % PINNED_SEEDS if args.campaign_seed is None else args.campaign_seed
    spec = write_spec(name, wl, base, cseed, wl["jobs"])
    started = time.perf_counter()
    log("workload %s: suite %s, seeds_per_dim %d, suite_base_seed %d, campaign_seed %d, "
        "%d worker(s)" % (name, wl["suite"], wl["seeds_per_dim"], base, cseed, wl["jobs"]))

    key = "%d/%d" % (base, cseed)
    ref = load_reference(name, key)
    if ref is None:
        log("outputs check: no pinned reference for %s; comparing against an "
            "MCS_DELTA=0 run of the same spec" % key)
        off = run_synth(synth, wl, spec, "reference", env=delta_off_env())
        if not off.ok:
            fail("MCS_DELTA=0 reference run failed: " + off.error)
        ref = reference_entry(wl["kind"], paper_rows(wl["kind"], off.report))
    else:
        log("outputs check: pinned reference %s (digest %s)" % (key, ref["digest"]))

    state = {"attempted": 0, "failed": 0, "unsound": 0, "mismatch": "", "coords": []}

    def account(rep):
        if rep.report is not None:
            state["attempted"] += len(rep.report["jobs"])
        if not rep.ok:
            state["failed"] += len(rep.report["jobs"]) if rep.report else ref["jobs"]
            if rep.report is None:
                state["attempted"] += ref["jobs"]
            state["mismatch"] = state["mismatch"] or rep.error
            return
        kind = wl["kind"]
        state["failed"] += sum(1 for j in rep.report["jobs"] if not settled_ok(kind, j))
        if kind == "validation":
            unsound = [j for j in rep.report["jobs"] if j["violations"]]
            state["unsound"] += len(unsound)
            state["coords"] = state["coords"] or [
                [j["system_seed"], v["activity"], v["simulated"], v["bound"]]
                for j in unsound for v in j["violations"]]
        diff = compare(kind, paper_rows(kind, rep.report), ref)
        if diff and not state["mismatch"]:
            state["mismatch"] = "paper outputs differ from reference %s: %s" % (key, diff)

    def out_of_time():
        return time.perf_counter() - started > HARD_STOP_S

    def setup_run(reps):
        proc = subprocess.run([layers_bin, "setup", wl["kind"], spec, str(reps)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail("perfbench_layers setup failed: " + proc.stderr.strip())
        return json.loads(proc.stdout)["reps"]

    if args.trace == 0:
        metrics = measure(synth, wl, spec, args.seconds, setup_run, account, out_of_time)
        metrics["ok_frac"] = (ratio(state["attempted"] - state["failed"] - state["unsound"],
                                    state["attempted"]), "ratio")
    else:
        metrics = profile(synth, layers_bin, wl, name, spec, base, cseed, setup_run,
                          account, out_of_time)

    if state["unsound"]:
        report_unsound(state, wl)
    correct = not state["mismatch"] and state["attempted"] > 0
    if state["mismatch"]:
        log("OUTPUTS CHECK FAILED: " + state["mismatch"])
    else:
        log("outputs check: every campaign matched the reference")
    for metric, (value, unit) in metrics.items():
        log("  %-28s %.6g %s" % (metric, value, unit))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def measure(synth, wl, spec, seconds, setup_run, account, out_of_time):
    """The --trace 0 run: end-to-end metrics, each a median over campaigns.
    One untimed warm-up campaign comes first (the first campaign after an
    idle spell runs slow); a set-up pass follows every timed campaign, so
    set-up and campaigns sample the same stretch of machine time."""
    campaigns = max(3, int(round(seconds / wl["rep_s"])) - 1)
    reps, setup = [], []
    for i in range(campaigns + 1):
        if out_of_time():
            log("warning: stopping after %d campaigns to stay inside the time limit" % i)
            break
        rep = run_synth(synth, wl, spec, "rep%d" % i)
        account(rep)
        if i == 0 or not rep.ok:
            continue
        jobs = rep.report["jobs"]
        rep.seconds = job_seconds(rep.report)
        rep.done = sum(1 for j in jobs if settled_ok(wl["kind"], j))
        rep.report = None
        reps.append(rep)
        setup += setup_run(wl["setup_reps"])
    if not reps:
        return {}
    tail_s, tail_pct, tail_n = job_tail([r.seconds for r in reps])
    jobs = len(reps[0].seconds)
    log("%d timed campaign(s) of %d jobs; job_tail_s is p%.2f of N=%d %s; "
        "setup_s is the median of %d set-ups of %d systems"
        % (len(reps), jobs, tail_pct, tail_n,
           "per-job medians" if tail_n == jobs else "job samples", len(setup), jobs))
    return {
        "jobs_per_s": (median([r.done / r.wall_s for r in reps]), "1/s"),
        "job_p50_s": (median([median(r.seconds) for r in reps]), "s"),
        "job_tail_s": (tail_s, "s"),
        "cpu_s_per_job": (median([r.cpu_s / len(r.seconds) for r in reps]), "s"),
        "setup_s": (median([r["gen.generate"]["s"] + r["core.workspace_build"]["s"]
                            for r in setup]), "s"),
        "peak_rss_mb": (median([r.maxrss_mb for r in reps]), "MB"),
    }


def report_unsound(state, wl):
    """Prints the coordinates of every fault-free bound violation (a known
    analysis soundness defect) and the share of jobs it costs."""
    log("known defect: %d of %d job runs had fault-free bound violations "
        "(counted against ok_frac); failed_frac = (%d failed + %d unsound) / %d"
        % (state["unsound"], state["attempted"], state["failed"], state["unsound"],
           state["attempted"]))
    for seed, activity, simulated, bound in state["coords"]:
        log("  unsound: %s simulated %d > bound %d (suite %s, system_seed %d, strategy %s)"
            % (activity, simulated, bound, wl["suite"], seed, wl["strategy"]))


def profile(synth, layers_bin, wl, name, spec, base, cseed, setup_run, account,
            out_of_time):
    """The --trace 1 run: per-layer metrics."""
    untraced, traced = [], []
    for i in range(TRACE_PAIRS):
        if out_of_time():
            break
        rep = run_synth(synth, wl, spec, "pair%du" % i)
        account(rep)
        if rep.ok:
            rep.report = None
            untraced.append(rep)
        rep = run_synth(synth, wl, spec, "pair%dt" % i, trace=True)
        account(rep)
        if rep.ok:
            rep.layers = traced_layers(rep, wl["jobs"])
            rep.report = None
            traced.append(rep)
    if not traced or not untraced:
        fail("no successful traced/untraced campaign pair")
    layers = {m: median([r.layers[0][m] for r in traced]) for m in traced[0].layers[0]}
    spans = traced[0].layers[1]
    log("span self times of the first traced campaign (%.0f analysis runs, %.0f "
        "sampled; sampled spans weighted up):" % (layers["core.mcs_runs"],
                                                  layers["core.mcs_sampled_runs"]))
    for span, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self"]):
        log("  %-16s n=%-7d total %9.4f s  self %9.4f s"
            % (span, entry["count"], entry["total"], entry["self"]))

    if wl["jobs"] == 2:
        layers["exp.worker_idle_frac_2w"] = layers["exp.worker_idle_frac"]
    else:
        spec2 = write_spec(name, wl, base, cseed, 2)
        rep = run_synth(synth, wl, spec2, "two_workers", trace=True)
        account(rep)
        if not rep.ok:
            fail("2-worker traced campaign failed: " + rep.error)
        layers["exp.worker_idle_frac_2w"] = traced_layers(rep, 2)[0]["exp.worker_idle_frac"]

    harness_report = os.path.join(WORK_DIR, "harness.report.json")
    cmd = [layers_bin, "layers", wl["kind"], spec, harness_report]
    if wl["journal"]:
        cmd.append(os.path.join(WORK_DIR, "harness.journal"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench_layers layers failed: " + proc.stderr.strip())
    harness = json.loads(proc.stdout)["spans"]

    def hs(span):
        return harness.get(span, {}).get("s", 0.0)

    setup = setup_run(wl["setup_reps"])
    sim_s = hs("sim.simulate") + hs("sim.check_bounds")
    layers.update({
        "gen.generate_s": median([r["gen.generate"]["s"] for r in setup]),
        "core.workspace_build_s": median([r["core.workspace_build"]["s"] for r in setup]),
        "core.cold_mcs_s": hs("core.cold_mcs"),
        "sim.simulate_s": hs("sim.simulate"),
        "sim.check_bounds_s": hs("sim.check_bounds"),
        "sim.share": ratio(sim_s, hs("job")),
        "exp.report_write_s": hs("exp.write_json"),
        "exp.journal_append_s": hs("exp.journal_append"),
        "obs.trace_overhead_frac": median([r.wall_s for r in traced])
        / median([r.wall_s for r in untraced]) - 1.0,
    })
    return {m: (layers[m], PER_LAYER_UNITS[m]) for m in sorted(layers)}


# ---- pinning ---------------------------------------------------------------

def pin(synth, names):
    """Records the reference under MCS_DELTA=0 (the seed-semantics analysis
    path) for every pinned campaign seed, after checking the default path
    produces the same paper outputs."""
    try:
        with open(REFERENCE) as f:
            data = json.load(f)
    except (OSError, ValueError):
        data = {}
    data["about"] = ("Paper outputs of each workload, recorded by `python3 "
                     "perfbench/run.py --pin` with MCS_DELTA=0; keys are "
                     "suite_base_seed/campaign_seed.")
    workloads = data.setdefault("workloads", {})
    for name in names:
        wl = WORKLOADS[name]
        entries = {}
        for cseed in range(1, PINNED_SEEDS + 1):
            base = wl["suite_base_seed"]
            spec = write_spec(name, wl, base, cseed, wl["jobs"])
            off = run_synth(synth, wl, spec, "pin_off", env=delta_off_env())
            on = run_synth(synth, wl, spec, "pin_on")
            if not (off.ok and on.ok):
                fail("pin run failed: %s %s" % (off.error, on.error))
            rows = paper_rows(wl["kind"], off.report)
            entry = reference_entry(wl["kind"], rows)
            diff = compare(wl["kind"], paper_rows(wl["kind"], on.report), entry)
            if diff:
                fail("%s %d/%d: default path differs from MCS_DELTA=0: %s"
                     % (name, base, cseed, diff))
            entries["%d/%d" % (base, cseed)] = entry
            log("pinned %s %d/%d digest %s" % (name, base, cseed, entry["digest"]))
        workloads[name] = entries
    with open(REFERENCE, "w") as f:
        json.dump(data, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
