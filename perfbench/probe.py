"""Traced child: one fresh process per operation, layer by layer.

Usage: python3 perfbench/probe.py ENTRY   (src on PYTHONPATH, and
PERFBENCH_T0 set to the parent's time.monotonic() just before the spawn).

The child calls each layer's public entry points in dependency order, so
each span holds its own layer's work with the layers below it already warm:
partitions, then rep enumeration and construction, then the closed product
and the Levi module, then the Weyl-integration engine, then isolation and
coverage. It then re-runs ``cli.main`` with caches warm (a survey entry
instead runs the survey once to warm its caches and once more with every
library call timed). Spans stay in memory and are printed as one JSON
document at the end. Each span records ``op_s``, the part of its time that
the operation itself spends in that layer, or 0 when the span is a probe
the operation does not make.
"""

from __future__ import annotations

import hashlib
import io
import os
import resource
import sys
import time
from contextlib import redirect_stdout

T_SPAWN = float(os.environ["PERFBENCH_T0"])

import cohomreps.cli  # noqa: E402  (timed: spawn to import done)

T_IMPORTED = time.monotonic()

import json  # noqa: E402

from cohomreps import (  # noqa: E402
    Family,
    degree_support,
    enumerate_partitions_in_box,
    enumerate_reps,
    is_compatible,
    isolated_d0,
    isolated_O,
    isolated_Sp,
    isolated_U_explicit,
    isolated_U_search,
    li_coverage,
    lp_character,
    make_rep,
    parse_partition,
    poincare_closed,
    poincare_oracle,
    relth_coverage,
    trivial_rep,
)

from survey import ORACLE_MAX_DIM, lemc_sweep, module_dim, summary_digest, survey  # noqa: E402
from workloads import parse_group  # noqa: E402

# Probes the operation does not make run only where they stay cheap; the
# cohomology operation's own oracle runs whatever its size.
PROBE_MAX_DIM = 16
REAL_CENTER_MAX_DIM = 25
DECOMPOSE_SAMPLE = 2000
LEMC_MAX_N = 12
REPEAT_BUDGET_S = 0.05
REPEAT_MAX_CALLS = 200


class Trace:
    def __init__(self):
        self.spans = []
        self.counts = {}

    def span(self, name, start, end, calls=1, op_calls=0):
        """Record a span; op_calls of its calls are part of the operation."""
        busy = end - start
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "calls": calls,
                "busy_s": busy,
                "op_s": busy * min(op_calls, calls) / calls,
            }
        )

    def timed(self, name, fn, *args, op_calls=0):
        t0 = time.monotonic()
        out = fn(*args)
        self.span(name, t0, time.monotonic(), 1, op_calls)
        return out

    def repeated(self, name, fn, *args, op_calls=0):
        """Time fn over several calls, for a per-call mean."""
        t0 = time.monotonic()
        calls = 0
        while True:
            out = fn(*args)
            calls += 1
            now = time.monotonic()
            if now - t0 >= REPEAT_BUDGET_S or calls >= REPEAT_MAX_CALLS:
                break
        self.span(name, t0, now, calls, op_calls)
        return out


class _Sink(io.TextIOBase):
    """Text stream that only hashes and counts what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0

    def writable(self):
        return True

    def write(self, s):
        data = s.encode()
        self.sha.update(data)
        self.bytes += len(data)
        return len(s)


def _rep_from_argv(fam, argv):
    """The rep a CLI entry names, built as cli.py builds it."""
    opts = dict(zip(argv[4::2], argv[5::2]))
    lam = opts.get("--lambda")
    mu = opts.get("--mu")
    flag = int(opts["--flag"]) if "--flag" in opts else None
    if lam is None and mu is None:
        if flag is None:
            return trivial_rep(fam)
        return make_rep(fam, (), (fam.q,) * fam.p, flag)
    lam = parse_partition(lam) if lam is not None else ()
    mu = parse_partition(mu) if mu is not None else None
    return make_rep(fam, lam, mu, flag)


def _partitions(tr, p, q):
    parts = tr.timed("partitions.box_enum", lambda: list(enumerate_partitions_in_box(p, q)))
    n = len(parts)
    pairs = [(parts[(i * 7919) % n], parts[(i * 104729 + 1) % n]) for i in range(DECOMPOSE_SAMPLE)]
    t0 = time.monotonic()
    for lam, mu in pairs:
        is_compatible(lam, mu, p, q)
    tr.span("partitions.decompose", t0, time.monotonic(), len(pairs))


def _characters(tr, rep, op_calls):
    # poincare_oracle is timed rather than invariant_poincare alone so that
    # its cache is warm for cli.main; it rebuilds the module, which the
    # reps.lp_character span already timed, so that span is a probe.
    group, chi = tr.timed("reps.lp_character", lp_character, rep)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr.timed("characters.invariant_poincare", poincare_oracle, rep, op_calls=op_calls)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr.counts["characters.rss_growth_mb"] = (after - before) / 1024
    tr.counts["characters.module_dim"] = chi.dimension()
    tr.counts["characters.module_weights"] = len(chi.terms)
    tr.counts["characters.weyl_order"] = group.weyl_order


def _real_center_dim(rep):
    if rep.family.kind != "O":
        return 0
    p0, q0 = rep.orth.center
    return p0 * q0


def _search(kind):
    return {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}[kind]


def _isolation(tr, rep, in_op):
    kind = rep.family.kind
    search = _search(kind)
    op = 1 if in_op else 0
    verdict = tr.timed("isolation.first_call", search, rep, op_calls=op)
    tr.counts["isolation.witnesses"] = len(verdict.witnesses)
    tr.repeated("isolation.search", search, rep)
    if kind == "U":
        tr.repeated("isolation.explicit", isolated_U_explicit, rep, op_calls=op)
    tr.repeated("isolation.d0", isolated_d0, rep, op_calls=op)


def _autdegrees(tr, rep, in_op):
    fam = rep.family
    tr.repeated(
        "autdegrees.coverage",
        lambda: (li_coverage(rep), relth_coverage(rep)),
        op_calls=1 if in_op else 0,
    )
    lo, hi = sorted((fam.p, fam.q))
    tr.repeated("autdegrees.degree_support", degree_support, lo + hi, lo, hi)
    tr.timed("autdegrees.lemC", lemc_sweep, min(lo + hi, LEMC_MAX_N))


def probe_cli(tr, entry):
    argv = entry.split()
    command = argv[0]
    kind, p, q = parse_group(entry)
    fam = Family(kind, p, q)
    _partitions(tr, p, q)
    builds_rep = command != "enumerate"
    rep = tr.repeated("reps.make_rep", _rep_from_argv, fam, argv, op_calls=int(builds_rep))
    reps = tr.timed(
        "reps.enumerate", enumerate_reps, fam, op_calls=int(command in ("enumerate", "isolate"))
    )
    tr.counts["reps.count"] = len(reps)
    oracle_op = command == "cohomology"
    if _real_center_dim(rep) <= REAL_CENTER_MAX_DIM:
        tr.timed("reps.closed", poincare_closed, rep, op_calls=int(oracle_op))
    if oracle_op or module_dim(rep) <= PROBE_MAX_DIM:
        _characters(tr, rep, op_calls=int(oracle_op))
    _isolation(tr, rep, in_op=command == "isolate")
    _autdegrees(tr, rep, in_op=command == "coverage")
    sink = _Sink()
    with redirect_stdout(sink):
        rc = tr.timed("cli.warm_main", cohomreps.cli.main, argv, op_calls=1)
    tr.counts["cli.output_bytes"] = sink.bytes
    return {"rc": rc, "digest": sink.sha.hexdigest(), "violations": []}


def probe_survey(tr, entry):
    kind, p, q = parse_group(entry)
    fam = Family(kind, p, q)
    _partitions(tr, p, q)
    reps = tr.timed("reps.enumerate", enumerate_reps, fam)
    tr.counts["reps.count"] = len(reps)
    t0 = time.monotonic()
    for rep in reps:
        make_rep(fam, rep.lam, None if kind == "O" else rep.mu, rep.flag)
    tr.span("reps.make_rep", t0, time.monotonic(), len(reps))
    # The largest module the survey hands to the oracle.
    small = [r for r in reps if module_dim(r) <= ORACLE_MAX_DIM]
    if small:
        _characters(tr, max(small, key=module_dim), op_calls=0)
    verdict = tr.timed("isolation.first_call", _search(kind), reps[0])
    tr.counts["isolation.witnesses"] = len(verdict.witnesses)
    survey(entry)  # warm every remaining cache, as in the warm worker

    totals = {}

    def call(name, fn, *args):
        t0 = time.monotonic()
        out = fn(*args)
        dt = time.monotonic() - t0
        total, calls = totals.get(name, (0.0, 0))
        totals[name] = (total + dt, calls + 1)
        return out

    t0 = time.monotonic()
    summary, bad = survey(entry, call)
    t1 = time.monotonic()
    # One aggregated span per layer of the timed survey; each covers the
    # survey's interval, is busy for its own total and is all operation.
    for name, (busy, calls) in totals.items():
        tr.spans.append(
            {"name": name, "start": t0, "end": t1, "calls": calls, "busy_s": busy, "op_s": busy}
        )
    sink = _Sink()
    with redirect_stdout(sink):
        tr.timed("cli.warm_main", cohomreps.cli.main, ["enumerate", kind, str(p), str(q)])
    tr.counts["cli.output_bytes"] = sink.bytes
    return {"rc": 0, "digest": summary_digest(summary), "violations": bad}


def main(entry):
    tr = Trace()
    tr.span("import", T_SPAWN, T_IMPORTED, 1, op_calls=0 if entry.startswith("survey") else 1)
    if entry.startswith("survey"):
        result = probe_survey(tr, entry)
    else:
        result = probe_cli(tr, entry)
    result["spans"] = tr.spans
    result["counts"] = tr.counts
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
