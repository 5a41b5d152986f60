#!/usr/bin/env python3
"""Fleet benchmark of the ProRP simulator: end to end and layer by layer.

One run measures one workload for --seconds seconds.  A workload's input
is SUB_FLEETS region fleets, each generated from its own trace-source
seed derived from --seed:

  --trace 0  runs sim::RunFleetSimulation (fleet_bench, untraced) on
             every sub-fleet in turn, one fresh process per repetition,
             for a fixed number of passes over the sub-fleets.  Throughput
             divides the work of all sub-fleets by the sum of each
             sub-fleet's fastest run; set-up time and RSS are the median
             repetition's; QoS and idle are those of the union of the
             sub-fleets, so they depend on --seed only.
  --trace 1  alternates untraced runs of sub-fleet 0 with the traced
             replay (fleet_trace) of the same fleet, which rebuilds the
             simulator's event loop from the layers' public APIs and times
             every call into them, and reports the per-layer metrics.

The number of passes (or untraced/traced pairs) is round(--seconds /
PASS_SECONDS), at least 2: it depends on the time asked for, never on how
fast the code under test runs, so a faster program is not rewarded with
more draws.  A pass takes about PASS_SECONDS on a 4-vCPU 2.1 GHz Xeon.

Both modes check the program's outputs: the KPI counters of a fleet must
be identical on every repetition, the traced replay must reproduce the
untraced counters exactly, and the control plane's accounting must
reconcile with no pending failures and no incidents.  Any mismatch makes
`correct` false and the exit code 1.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where an operation is a simulated first login after idle (KPI
logins_total) and a failed operation is one of a run that returned an
error.  A login that waits for a reactive resume is a QoS miss, reported
by qos_pct, not a failure.

The programs are built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--sim-seed N]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --emit-benchmark-json > BENCHMARK.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEFAULT_WORKLOAD_SEED = 2024
DEFAULT_SIM_SEED = 7
RUN_SECONDS = 30
# Nominal length of one pass over the sub-fleets; sets the pass count.
PASS_SECONDS = 10
# Distinct fleets per run: averaging over them shrinks the seed-to-seed
# spread of every metric the fleet's make-up moves.
SUB_FLEETS = 8
# Hard ceiling on one invocation, build excluded; the contract allows 180 s.
TIME_LIMIT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    dbs: int
    durable: bool
    why: str
    warmup_days: int = 28
    measure_days: int = 32

    @property
    def days(self):
        return self.warmup_days + self.measure_days

    def flags(self):
        return ["--policy", self.policy, "--dbs", str(self.dbs),
                "--warmup-days", str(self.warmup_days),
                "--measure-days", str(self.measure_days)]

    def tiny(self):
        """The self-test's version: a few hundred databases, a few days."""
        return Workload(self.name, self.policy, 200, self.durable, self.why,
                        warmup_days=3, measure_days=2)


# All workloads: EU1 with its default evictions, StreamingFleetSource,
# streaming telemetry, lite metadata, one simulation thread; `dbs` is the
# size of one sub-fleet.
WORKLOADS = [
    Workload(
        "proactive_eu1", "proactive", 700, False,
        "Paper's proactive policy, where predictor and history dominate; "
        "EU1, 8 fleets x 700 dbs, 28+32 days, in-memory history, "
        "direct-call control plane, lite metadata."),
    Workload(
        "reactive_eu1", "reactive", 10000, False,
        "Reactive baseline that bypasses predictor and history, so the "
        "event loop dominates; EU1, 8 fleets x 10000 dbs, 28+32 days, null "
        "history, lite metadata."),
    Workload(
        "durable_cp_eu1", "proactive", 250, True,
        "Proactive policy with every transition journaled and every "
        "pre-warm sent over the transport; EU1, 8 fleets x 250 dbs, "
        "28+32 days, durable journal, use_transport."),
]
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound, meaning)
END_TO_END = [
    ("db_days_per_s", "db_day/s", "higher", 0.25,
     "databases x virtual days of all sub-fleets / sum of each "
     "sub-fleet's fastest RunFleetSimulation wall time"),
    ("setup_s", "s", "lower", 0.25,
     "wall time before the first simulated event: trace source, options, "
     "journal directory, cursor opening; median repetition"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak RSS of the repetition's process; median repetition"),
    ("qos_pct", "%", "higher", 0.04, "KpiReport::QosAvailablePct()"),
    ("idle_pct", "%", "lower", 0.1, "KpiReport::IdleTotalPct()"),
]

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("workload.calls", "count", "lower", "db_days_per_s on reactive_eu1"),
    ("workload.self_s", "s", "lower", "db_days_per_s on reactive_eu1"),
    ("workload.ns_per_call", "ns", "lower", "db_days_per_s on reactive_eu1"),
    ("timer_wheel.pushes", "count", "lower", "db_days_per_s on reactive_eu1"),
    ("timer_wheel.pops", "count", "lower", "db_days_per_s on reactive_eu1"),
    ("timer_wheel.self_s", "s", "lower", "db_days_per_s on reactive_eu1"),
    ("timer_wheel.stale_ratio", "ratio", "lower",
     "db_days_per_s on reactive_eu1"),
    ("lifecycle.calls", "count", "lower", "db_days_per_s on reactive_eu1"),
    ("lifecycle.self_s", "s", "lower", "db_days_per_s on reactive_eu1"),
    ("lifecycle.transitions", "count", "lower",
     "db_days_per_s on reactive_eu1"),
    ("history.calls", "count", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.self_s", "s", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.self_share", "ratio", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.collect_per_prediction", "count", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.logins_copied_per_prediction", "count", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.allocs_per_call", "count", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("history.tuples_deleted", "count", "lower",
     "db_days_per_s on proactive_eu1; no change on reactive_eu1"),
    ("predictor.calls", "count", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("predictor.self_s", "s", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("predictor.self_share", "ratio", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("predictor.p50_ns", "ns", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("predictor.p99_ns", "ns", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("predictor.window_ratio", "ratio", "higher",
     "must not move: qos_pct and idle_pct on proactive_eu1"),
    ("metadata.calls", "count", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("metadata.self_s", "s", "lower",
     "db_days_per_s on proactive_eu1 and durable_cp_eu1"),
    ("mgmt.calls", "count", "lower", "db_days_per_s on durable_cp_eu1"),
    ("mgmt.self_s", "s", "lower", "db_days_per_s on durable_cp_eu1"),
    ("mgmt.resumed_per_run", "count", "higher",
     "db_days_per_s on durable_cp_eu1"),
    ("mgmt.prewarm_correct_ratio", "ratio", "higher",
     "tracks idle_pct on proactive_eu1"),
    ("transport.dispatches", "count", "lower",
     "db_days_per_s on durable_cp_eu1"),
    ("transport.retransmits", "count", "lower",
     "db_days_per_s on durable_cp_eu1"),
    ("transport.self_s", "s", "lower", "db_days_per_s on durable_cp_eu1"),
    ("journal.records", "count", "lower",
     "db_days_per_s on durable_cp_eu1; 0 elsewhere"),
    ("journal.bytes", "bytes", "lower",
     "db_days_per_s on durable_cp_eu1; 0 elsewhere"),
    ("journal.checkpoints", "count", "lower",
     "db_days_per_s on durable_cp_eu1; 0 elsewhere"),
    ("journal.checkpoint_s", "s", "lower",
     "db_days_per_s on durable_cp_eu1; 0 elsewhere"),
    ("ledger.calls", "count", "lower", "db_days_per_s on reactive_eu1"),
    ("ledger.self_s", "s", "lower", "db_days_per_s on reactive_eu1"),
    ("loop.events", "count", "lower",
     "db_days_per_s and peak_rss_mb, all workloads"),
    ("loop.self_s", "s", "lower",
     "db_days_per_s and peak_rss_mb, all workloads"),
    ("loop.allocs_per_event", "count", "lower",
     "db_days_per_s and peak_rss_mb, all workloads"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none; traced / untraced wall of the same workload"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ProRP sources under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step([cmake, "-S", str(BENCH_DIR), "-B", str(out),
                        *generator, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step([cmake, "--build", str(out), "--target", *targets,
                    "-j", jobs])
    return out


def run_build_step(cmd):
    # Build output goes to stderr: stdout ends with the result line.
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT)
    if result.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


# --------------------------------------------------------------------------
# One repetition = one process
# --------------------------------------------------------------------------

def sub_fleet_seed(workload_seed, sub):
    """Trace-source seed of sub-fleet `sub` of a run seeded `workload_seed`."""
    return workload_seed * 1000 + sub


class Runner:
    def __init__(self, out_dir, workload, workload_seed, sim_seed, deadline):
        self.out_dir = out_dir
        self.workload = workload
        self.workload_seed = workload_seed
        self.sim_seed = sim_seed
        self.deadline = deadline
        self.count = 0

    def run(self, program, sub):
        """Runs `program` once on sub-fleet `sub`; returns its result with
        the sub-fleet index added."""
        self.count += 1
        cmd = [str(self.out_dir / program), *self.workload.flags(),
               "--workload-seed",
               str(sub_fleet_seed(self.workload_seed, sub)),
               "--sim-seed", str(self.sim_seed)]
        journal = None
        if self.workload.durable:
            journal = (self.out_dir / "journals" /
                       f"{self.workload.name}-{os.getpid()}-{self.count}")
            shutil.rmtree(journal, ignore_errors=True)
            journal.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--journal-dir", str(journal)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a repetition")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{program} exceeded the time limit")
        finally:
            if journal is not None:
                shutil.rmtree(journal, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            rep = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{program} exited {proc.returncode} "
                             "without a result")
        if proc.returncode != 0 or not rep.get("ok"):
            rep["ok"] = False
            rep.setdefault("error", f"exit code {proc.returncode}")
        rep["sub"] = sub
        return rep


OUTCOME_FIELDS = ("counters", "qos_pct", "idle_pct", "idle_s", "total_s",
                  "idle_proactive_correct_s", "idle_proactive_wrong_s")


def outcome(rep):
    """The fields that must repeat exactly for one fleet."""
    return json.dumps({k: rep[k] for k in OUTCOME_FIELDS}, sort_keys=True)


def first_per_sub(reps):
    """The first repetition of every sub-fleet, by sub-fleet index."""
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep["sub"], rep)
    return [firsts[sub] for sub in sorted(firsts)]


def check_reps(workload, untraced, traced):
    """Returns the list of problems found in the repetitions' outputs."""
    problems = [f"run failed: {r.get('error')}"
                for r in untraced + traced if not r["ok"]]
    if problems:
        return problems
    reference = {r["sub"]: outcome(r) for r in first_per_sub(untraced)}
    if any(outcome(r) != reference[r["sub"]] for r in untraced):
        problems.append("KPI counters differ between repetitions")
    if any(outcome(r) != reference[r["sub"]] for r in traced):
        problems.append("traced replay counters differ from the untraced run")
    proactive = workload.policy == "proactive"
    for rep in first_per_sub(untraced):
        c = rep["counters"]
        if c["logins_total"] == 0 or c["events_processed"] == 0:
            problems.append("empty run")
        if c["logins_total"] != c["logins_available"] + c["logins_reactive"]:
            problems.append("logins do not add up")
        if (c["predictions"] > 0) != proactive:
            problems.append("predictions do not match the policy")
        if (c["proactive_resumes"] > 0) != proactive:
            problems.append("proactive resumes do not match the policy")
    if any(r["pending_failed"] != 0 or r["incidents"] != 0
           for r in untraced + traced):
        problems.append("control-plane accounting does not reconcile: "
                        "pending failures or incidents")
    return sorted(set(problems))


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def end_to_end_metrics(workload, reps):
    # QoS and idle of the union of the sub-fleets: the same sums
    # KpiReport's percentages divide, added over the fleets.
    fleets = first_per_sub(reps)
    logins = sum(r["counters"]["logins_total"] for r in fleets)
    available = sum(r["counters"]["logins_available"] for r in fleets)
    # Each sub-fleet's fastest run: on a shared machine the slowdowns come
    # from neighbours, and the fastest of a fixed number of runs is what
    # stays put from run to run.  Summing them weighs every sub-fleet by
    # its work, whichever happened to land in a fast phase.
    fastest = {}
    for r in reps:
        fastest[r["sub"]] = min(r["run_s"], fastest.get(r["sub"], r["run_s"]))
    db_days = len(fastest) * workload.dbs * workload.days
    values = {
        "db_days_per_s": db_days / sum(fastest.values()),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] / 2**20
                                         for r in reps),
        "qos_pct": 100.0 * available / logins,
        "idle_pct": 100.0 * sum(r["idle_s"] for r in fleets) /
                    sum(r["total_s"] for r in fleets),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _, _ in END_TO_END}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(untraced, traced):
    t = traced[0]
    layers, stats = t["layers"], t["stats"]
    events = t["counters"]["events_processed"]
    predictions = layers["predictor"]["calls"]

    def self_s(layer):
        return statistics.median(r["layers"][layer]["self_s"]
                                 for r in traced)

    traced_wall = statistics.median(r["run_s"] for r in traced)
    untraced_wall = statistics.median(r["run_s"] for r in untraced)
    correct = t["idle_proactive_correct_s"]
    wrong = t["idle_proactive_wrong_s"]
    values = {
        "workload.calls": layers["workload"]["calls"],
        "workload.self_s": self_s("workload"),
        "workload.ns_per_call": ratio(self_s("workload") * 1e9,
                                      layers["workload"]["calls"]),
        "timer_wheel.pushes": stats["wheel_pushes"],
        "timer_wheel.pops": stats["wheel_pops"],
        "timer_wheel.self_s": self_s("timer_wheel"),
        "timer_wheel.stale_ratio": ratio(stats["stale_events"], events),
        "lifecycle.calls": layers["lifecycle"]["calls"],
        "lifecycle.self_s": self_s("lifecycle"),
        "lifecycle.transitions": stats["transitions"],
        "history.calls": layers["history"]["calls"],
        "history.self_s": self_s("history"),
        "history.self_share": ratio(self_s("history"), untraced_wall),
        "history.collect_per_prediction": ratio(stats["collect_calls"],
                                                predictions),
        "history.logins_copied_per_prediction": ratio(stats["logins_copied"],
                                                      predictions),
        "history.allocs_per_call": ratio(layers["history"]["allocs"],
                                         layers["history"]["calls"]),
        "history.tuples_deleted": stats["tuples_deleted"],
        "predictor.calls": predictions,
        "predictor.self_s": self_s("predictor"),
        "predictor.self_share": ratio(self_s("predictor"), untraced_wall),
        "predictor.p50_ns": statistics.median(r["stats"]["predictor_p50_ns"]
                                              for r in traced),
        "predictor.p99_ns": statistics.median(r["stats"]["predictor_p99_ns"]
                                              for r in traced),
        "predictor.window_ratio": ratio(stats["usable_predictions"],
                                        predictions),
        "metadata.calls": layers["metadata"]["calls"],
        "metadata.self_s": self_s("metadata"),
        "mgmt.calls": layers["mgmt"]["calls"],
        "mgmt.self_s": self_s("mgmt"),
        "mgmt.resumed_per_run": ratio(stats["mgmt_resumed"],
                                      stats["mgmt_runs"]),
        "mgmt.prewarm_correct_ratio": ratio(correct, correct + wrong),
        "transport.dispatches": stats["dispatches"],
        "transport.retransmits": stats["retransmits"],
        "transport.self_s": self_s("transport"),
        "journal.records": stats["journal_records"],
        "journal.bytes": stats["journal_bytes"],
        "journal.checkpoints": stats["checkpoints"],
        "journal.checkpoint_s": statistics.median(
            r["stats"]["checkpoint_s"] for r in traced),
        "ledger.calls": layers["ledger"]["calls"],
        "ledger.self_s": self_s("ledger"),
        "loop.events": events,
        "loop.self_s": self_s("loop"),
        "loop.allocs_per_event": ratio(stats["run_allocs"], events),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in PER_LAYER}


# --------------------------------------------------------------------------
# Running a workload
# --------------------------------------------------------------------------

def passes_for(seconds):
    return max(2, round(seconds / PASS_SECONDS))


def measure(workload, workload_seed, sim_seed, seconds, trace):
    """Builds, runs round(seconds / PASS_SECONDS) passes, checks, and
    returns (problems, attempted, failed, metrics)."""
    out = build(["fleet_bench", "fleet_trace"] if trace else ["fleet_bench"])
    print(f"# workload {workload.name}: policy={workload.policy} "
          f"dbs={workload.dbs} x {SUB_FLEETS} sub-fleets "
          f"days={workload.warmup_days}+{workload.measure_days} "
          f"durable={int(workload.durable)} workload_seed={workload_seed} "
          f"sim_seed={sim_seed} trace={int(trace)}")
    start = time.monotonic()
    runner = Runner(out, workload, workload_seed, sim_seed,
                    start + TIME_LIMIT_S)
    # Untraced: every sub-fleet once per pass.  Traced: one untraced and
    # one traced run of sub-fleet 0 per pass.
    subs = [0] if trace else list(range(SUB_FLEETS))
    untraced, traced = [], []
    for sub in subs * passes_for(seconds):
        untraced.append(runner.run("fleet_bench", sub))
        if trace:
            traced.append(runner.run("fleet_trace", sub))
        if any(not r["ok"] for r in untraced + traced):
            break
    print(f"# {workload.name}: {len(untraced)} untraced and {len(traced)} "
          f"traced repetitions in {time.monotonic() - start:.1f} s")

    problems = check_reps(workload, untraced, traced)
    good = [r for r in untraced if r["ok"]]
    logins = {r["sub"]: r["counters"]["logins_total"] for r in good}
    typical = max(logins.values(), default=1)
    attempted = sum(logins.get(r["sub"], typical) for r in untraced)
    failed = sum(logins.get(r["sub"], typical)
                 for r in untraced if not r["ok"])
    metrics = {}
    if not problems:
        metrics = (per_layer_metrics(untraced, traced) if trace
                   else end_to_end_metrics(workload, untraced))
    return problems, attempted, failed, metrics


def print_metrics(metrics):
    notes = {name: meaning for name, _, _, _, meaning in END_TO_END}
    notes.update((name, "moves: " + target)
                 for name, _, _, target in PER_LAYER)
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {text:>14} {m['unit']:<9}  {notes[name]}")
    if "predictor.self_share" in metrics:
        share = (metrics["predictor.self_share"]["value"] +
                 metrics["history.self_share"]["value"])
        print(f"  predictor + history self time, share of the untraced "
              f"wall: {100 * share:.1f}%")


def run_benchmark(args):
    workload = WORKLOAD_BY_NAME.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(WORKLOAD_BY_NAME)}")
    problems, attempted, failed, metrics = measure(
        workload, args.seed, args.sim_seed, args.seconds, args.trace)
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print_metrics(metrics)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def self_test():
    """Tiny fleets through both paths and the checks, in seconds."""
    failures = []
    for workload in WORKLOADS:
        tiny = workload.tiny()
        for trace in (0, 1):
            problems, attempted, failed, metrics = measure(
                tiny, DEFAULT_WORKLOAD_SEED, DEFAULT_SIM_SEED, 0, trace)
            names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
            if problems:
                failures += [f"{tiny.name} trace={trace}: {p}"
                             for p in problems]
            elif list(metrics) != names or attempted < 1 or failed:
                failures.append(f"{tiny.name} trace={trace}: bad result")
            elif not trace and any(metrics[n]["value"] <= 0 for n in names):
                failures.append(f"{tiny.name}: an end-to-end metric is 0")
    committed = ROOT / "BENCHMARK.json"
    if committed.exists() and json.loads(committed.read_text()) != \
            benchmark_json():
        failures.append("BENCHMARK.json differs from --emit-benchmark-json")
    for f in failures:
        print(f"# SELF-TEST FAILED: {f}")
    print("# self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help="workload (trace source) seed")
    parser.add_argument("--sim-seed", type=int, default=DEFAULT_SIM_SEED,
                        help="simulation seed (eviction hazards)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--emit-benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.sim_seed < 0:
        parser.error("seeds must be non-negative")
    try:
        if args.emit_benchmark_json:
            print(json.dumps(benchmark_json(), indent=2))
            return 0
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return run_benchmark(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
