"""cohomreps benchmark: cold CLI processes and a warm library session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-enum --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is a report with the
run's metadata and sample counts; the full report (every operation, and
with --trace 1 every span) is written under .perfbench/results/. See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, check_cli, digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SPAWNS = 7
SESSION_SETUPS = 3
OP_TIMEOUT_S = 30.0
PROBE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no operation starts or runs past this point
MEMORY_LIMIT = 1 << 30  # address space of every child, in bytes

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

LAYER_UNITS = {
    "cli.warm_main_s": "s",
    "cli.output_bytes": "count",
    "partitions.box_enum_s": "s",
    "partitions.decompose_us": "us",
    "reps.enumerate_s": "s",
    "reps.enumerate_us_per_rep": "us",
    "reps.count": "count",
    "reps.make_rep_us": "us",
    "reps.closed_s": "s",
    "reps.lp_character_s": "s",
    "isolation.first_call_s": "s",
    "isolation.search_us": "us",
    "isolation.explicit_us": "us",
    "isolation.d0_us": "us",
    "isolation.witnesses": "count",
    "characters.invariant_poincare_s": "s",
    "characters.rss_growth_mb": "MB",
    "characters.module_dim": "count",
    "characters.module_weights": "count",
    "characters.weyl_order": "count",
    "autdegrees.coverage_us": "us",
    "autdegrees.degree_support_us": "us",
    "autdegrees.lemC_s": "s",
    "trace.overhead_s": "s",
    "trace.span_share": "ratio",
}


def child_env(**extra):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(extra)
    return env


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(argv, timeout, env=None):
    """Run one child to completion under the per-op guards.

    Returns (stdout bytes, record) where the record holds wall time, the
    child's own CPU and max RSS from wait4, its exit code and whether the
    wall-clock timeout killed it.
    """
    killed = threading.Event()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env or child_env(),
        cwd=ROOT,
        preexec_fn=_limit_memory,
    )

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    record = {
        "wall": time.monotonic() - t0,
        "cpu": ru.ru_utime + ru.ru_stime,
        "maxrss_kb": ru.ru_maxrss,
        "rc": proc.returncode,
        "timed_out": killed.is_set(),
    }
    return out, record


def cli_argv(entry):
    return [sys.executable, "-m", "cohomreps.cli", *entry.split()]


def judge(record, reference, entry, got_digest, violations):
    """Fill in ok/why: any failure, mismatch or broken invariant fails.

    With reference None the digest is recorded but not compared.
    """
    why = list(violations)
    if record.get("timed_out"):
        why.append("timed out")
    elif record.get("rc") != 0:
        why.append(f"exit code {record.get('rc')}")
    elif reference is not None and got_digest != reference.get(entry):
        why.append("output digest differs from the reference")
    record["digest"] = got_digest
    record["ok"] = not why
    record["why"] = why
    return record


def run_cli_op(entry, reference, timeout):
    out, record = run_child(cli_argv(entry), timeout)
    bad = check_cli(entry, out) if record["rc"] == 0 and not record["timed_out"] else []
    return judge(record, reference, entry, digest(out), bad)


class Worker:
    """The long-lived library session of the warm-survey workload."""

    def __init__(self, timeout):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "survey.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            preexec_fn=_limit_memory,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        if self._read(timeout) is None:
            self.close()
            raise RuntimeError("the survey worker did not start")

    def _read(self, timeout):
        if not self.selector.select(timeout):
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, command, entry, timeout):
        try:
            self.proc.stdin.write((json.dumps([command, entry]) + "\n").encode())
            self.proc.stdin.flush()
            return self._read(timeout)
        except BrokenPipeError:
            return None

    def warm(self, entry, timeout):
        if self.request("warm", entry, timeout) is None:
            raise RuntimeError(f"the survey worker failed to warm up on {entry}")

    def survey(self, entry, reference, timeout):
        t0 = time.monotonic()
        reply = self.request("survey", entry, timeout)
        wall = time.monotonic() - t0
        if reply is None:
            self.proc.kill()
            self.close()
            record = {"wall": wall, "cpu": 0.0, "maxrss_kb": 0, "rc": None, "timed_out": True}
            return judge(record, reference, entry, None, ["the worker died or timed out"])
        record = {
            "wall": reply["wall"],
            "round_trip": wall,
            "cpu": reply["cpu"],
            "maxrss_kb": reply["maxrss_kb"],
            "rc": 0,
            "timed_out": False,
        }
        return judge(record, reference, entry, reply["digest"], reply["violations"])

    @property
    def alive(self):
        return self.proc.poll() is None

    def close(self):
        if self.proc.stdin.closed:
            return
        self.selector.close()
        self.proc.stdin.close()  # the worker exits at end of input
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_import(spawns):
    """Median seconds from spawning python to `import cohomreps.cli` done."""
    code = (
        "import time; import cohomreps.cli, cohomreps, json, sys; "
        "sys.stdout.write(json.dumps([time.monotonic(), cohomreps.__version__]))"
    )
    argv = [sys.executable, "-c", code]
    run_child(argv, OP_TIMEOUT_S)  # byte-compiles the package on a fresh checkout
    times, version = [], None
    for _ in range(spawns):
        t0 = time.monotonic()
        out, record = run_child(argv, OP_TIMEOUT_S)
        if record["rc"] != 0:
            raise RuntimeError("python could not import cohomreps.cli")
        t_done, version = json.loads(out)
        times.append(t_done - t0)
    return statistics.median(times), times, version


def run_probe(entry, reference, timeout):
    t0 = time.monotonic()
    env = child_env(PERFBENCH_T0=repr(t0))
    out, record = run_child([sys.executable, str(BENCH_DIR / "probe.py"), entry], timeout, env)
    result = {}
    if record["rc"] == 0 and not record["timed_out"]:
        result = json.loads(out)
    bad = list(result.get("violations", ()))
    if result and result["rc"] != 0:
        bad.append(f"cli.main returned {result['rc']}")
    judge(record, reference, entry, result.get("digest"), bad)
    record["spans"] = result.get("spans", [])
    record["counts"] = result.get("counts", {})
    return record


def tail_percentile(values, pct):
    """Nearest-rank percentile: at least (100 - pct)% of samples lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload, ops, loop_wall, setup_s):
    walls = [op["wall"] for op in ops]
    ok = [op for op in ops if op["ok"]]
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_percentile(walls, workload.tail_pct),
        "ops_per_s": len(ok) / loop_wall,
        "cpu_per_op_s": sum(op["cpu"] for op in ops) / len(ops),
        "peak_rss_mb": max(op["maxrss_kb"] for op in ops) / 1024,
        "success_ratio": len(ok) / len(ops),
    }


def layer_values(probe):
    """Per-layer values of one traced operation."""
    values = dict(probe["counts"])
    for span in probe["spans"]:
        name, busy, calls = span["name"], span["busy_s"], span["calls"]
        if name + "_s" in LAYER_UNITS:
            values[name + "_s"] = busy
        if name + "_us" in LAYER_UNITS:
            values[name + "_us"] = busy / calls * 1e6
    if "reps.enumerate_s" in values and values.get("reps.count"):
        values["reps.enumerate_us_per_rep"] = values["reps.enumerate_s"] / values["reps.count"] * 1e6
    return values


def per_layer(traced):
    """Median over the run's operations of each per-layer value."""
    samples = {}
    for op in traced:
        for name, value in op["layers"].items():
            samples.setdefault(name, []).append(value)
    missing = sorted(set(LAYER_UNITS) - set(samples))
    if missing:
        raise RuntimeError(f"the traced run measured no value for {missing}")
    return {name: statistics.median(samples[name]) for name in LAYER_UNITS}, {
        name: len(samples[name]) for name in LAYER_UNITS
    }


def layer_shares(ops):
    """Per span name: time the ops spend there over their untraced latency."""
    total = sum(op["wall"] for op in ops if "layers" in op)
    shares = {}
    for op in ops:
        if "layers" in op:
            for span in op["probe"]["spans"]:
                shares[span["name"]] = shares.get(span["name"], 0.0) + span["op_s"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(dirty)


class Run:
    def __init__(self, args, reference):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.reference = reference
        self.start = time.monotonic()
        self.worker = None

    def remaining(self):
        return self.start + RUN_DEADLINE_S - time.monotonic()

    def timeout(self, limit):
        return max(0.0, min(limit, self.remaining()))

    def untraced_op(self, entry):
        timeout = self.timeout(OP_TIMEOUT_S)
        if self.worker is None:
            return run_cli_op(entry, self.reference, timeout)
        if not self.worker.alive:
            return judge({"wall": 0.0, "cpu": 0.0, "maxrss_kb": 0, "rc": None}, {}, entry, None,
                         ["the worker died earlier in the run"])
        return self.worker.survey(entry, self.reference, timeout)

    def setup(self, passes):
        import_s, import_samples, version = measure_import(SETUP_SPAWNS)
        setup = {"import_s": import_samples, "version": version}
        if not self.workload.warm:
            return import_s, setup
        # A warm session's set-up is spawning the worker and filling its
        # caches for every pool entry. It is made SESSION_SETUPS times; the
        # last session serves the run.
        sessions = []
        for _ in range(SESSION_SETUPS):
            if self.worker is not None:
                self.worker.close()
            t0 = time.monotonic()
            self.worker = Worker(self.timeout(OP_TIMEOUT_S))
            for entry in next(passes):
                self.worker.warm(entry, self.timeout(OP_TIMEOUT_S))
            sessions.append(time.monotonic() - t0)
        setup["session_s"] = sessions
        return statistics.median(sessions), setup

    def loop(self, passes):
        """Whole passes until --seconds and the workload's minimum are met."""
        ops = []
        t0 = time.monotonic()
        trace = self.args.trace == 1
        min_ops = 1 if (trace or self.args.smoke) else self.workload.min_ops
        for order in passes:
            elapsed = time.monotonic() - t0
            if ops and (self.args.smoke or (elapsed >= self.args.seconds and len(ops) >= min_ops)):
                break
            for entry in order:
                if self.remaining() <= 0:
                    return ops, time.monotonic() - t0
                op = self.untraced_op(entry)
                op["entry"] = entry
                if trace:
                    self.traced_op(op, entry)
                ops.append(op)
        return ops, time.monotonic() - t0

    def traced_op(self, op, entry):
        probe = run_probe(entry, self.reference, self.timeout(PROBE_TIMEOUT_S))
        op["probe"] = probe
        if not probe["ok"]:
            op["ok"] = False
            op["why"] = op["why"] + ["traced: " + w for w in probe["why"]]
        if not probe["spans"]:
            return
        layers = layer_values(probe)
        layers["trace.overhead_s"] = probe["wall"] - op["wall"]
        layers["trace.span_share"] = sum(s["op_s"] for s in probe["spans"]) / op["wall"]
        op["layers"] = layers

    def close(self):
        if self.worker is not None:
            self.worker.close()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a few cheap entries, for the self-tests")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests (default: perfbench/reference.json)")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results",
                        help="directory for the full report")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cohomreps" / "__init__.py").is_file():
        print(f"perfbench: no cohomreps package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(args.reference.read_text())["digests"]
    load_start = os.getloadavg()
    run = Run(args, reference)
    passes = run.workload.passes(args.seed, args.smoke)
    try:
        setup_s, setup = run.setup(passes)
        ops, loop_wall = run.loop(passes)
    finally:
        run.close()
    failed = sum(not op["ok"] for op in ops)
    extra = {}
    if args.trace:
        metrics, samples = per_layer([op for op in ops if "layers" in op])
        units = LAYER_UNITS
        extra["layer_shares"] = layer_shares(ops)
    else:
        metrics = end_to_end(run.workload, ops, loop_wall, setup_s)
        samples = {name: len(ops) for name in metrics}
        samples["setup_s"] = SESSION_SETUPS if run.workload.warm else SETUP_SPAWNS
        units = E2E_UNITS
    sha, dirty = git_state()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "cohomreps_version": setup["version"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "pool_size": len(run.workload.pool),
        "tail_percentile": run.workload.tail_pct,
        "loop_wall_s": loop_wall,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "setup": setup,
        **extra,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (args.out / name).write_text(json.dumps({**report, "ops": ops}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
