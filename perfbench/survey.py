"""The warm-survey operation and the long-lived worker that runs it.

One operation surveys one group the way the demos and ``cohomreps verify``
do: enumerate its reps, then for every rep the closed Poincare product,
isolation by search (and by the explicit criterion for U), degree-zero
isolation, both coverage tags and, where the Levi module is small, the
Weyl-integration oracle; then the degree-support and Lemma C sweeps.

Run as a script, this file is the worker: it reads one JSON request per
line on stdin, ["warm", entry] or ["survey", entry], and answers each with
one JSON line on stdout. It must be started
with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter

from cohomreps import (
    N,
    Family,
    degree_support,
    enumerate_reps,
    isolated_d0,
    isolated_O,
    isolated_Sp,
    isolated_U_explicit,
    isolated_U_search,
    lemC_bruteforce,
    li_coverage,
    poincare_closed,
    poincare_oracle,
    relth_coverage,
)
from workloads import KNOWN_COUNTS, parse_group

ORACLE_MAX_DIM = 12


def module_dim(rep) -> int:
    """Dimension of the rep's Levi module, from its public block data.

    Hermitian blocks contribute 2ab, the quaternionic block of an Sp rep
    with flag 0 contributes 4ab and the real central block of an O rep ab.
    """
    if rep.family.kind == "O":
        p0, q0 = rep.orth.center
        return sum(2 * a * b for a, b in rep.orth.pairs) + p0 * q0
    dim = sum(2 * a * b for a, b in rep.skew.rectangles)
    if rep.family.kind == "Sp" and rep.flag == 0:
        a, b = rep.skew.rectangles[-1]
        dim += 2 * a * b
    return dim


def plain_call(name, fn, *args):
    return fn(*args)


def lemc_sweep(n, call=plain_call):
    """lemC_bruteforce against N(b, n, p) for every divisor b of n."""
    bad = []
    for b in range(1, n + 1):
        if n % b:
            continue
        for p in range(n + 1):
            best, uniform = call("autdegrees.lemC", lemC_bruteforce, n // b, b, p)
            if best != N(b, n, p) or not uniform:
                bad.append(f"lemC mismatch at n={n} b={b} p={p}")
    return bad


def survey(entry, call=plain_call):
    """Survey one group; returns (summary, violations).

    ``call(name, fn, *args)`` runs every library call, so a traced run can
    time each layer with the same code path the untraced run takes.
    """
    kind, p, q = parse_group(entry)
    # Named apart from the cold reps.enumerate span of a traced run: in a
    # warm session this call is a cache lookup.
    reps = call("reps.enumerate_warm", enumerate_reps, Family(kind, p, q))
    search = {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}[kind]
    bad = []
    known = KNOWN_COUNTS.get((kind, p, q))
    if known is not None and len(reps) != known:
        bad.append(f"{len(reps)} reps, known count {known}")
    closed_hash = hashlib.sha256()
    tally = Counter()
    for rep in reps:
        closed = call("reps.closed", poincare_closed, rep)
        closed_hash.update(repr(closed.coeffs).encode())
        verdict = call("isolation.search", search, rep)
        tally["isolated"] += verdict.isolated
        tally["witnesses"] += len(verdict.witnesses)
        if kind == "U":
            explicit = call("isolation.explicit", isolated_U_explicit, rep)
            if explicit.isolated != verdict.isolated:
                bad.append(f"search and explicit disagree on {rep!r}")
        tally["d0_isolated"] += call("isolation.d0", isolated_d0, rep).isolated
        tally["li:" + call("autdegrees.coverage", li_coverage, rep).tag] += 1
        tally["relth:" + call("autdegrees.coverage", relth_coverage, rep).tag] += 1
        if module_dim(rep) <= ORACLE_MAX_DIM:
            tally["oracle_checked"] += 1
            if call("reps.oracle", poincare_oracle, rep) != closed:
                bad.append(f"poincare_oracle != poincare_closed on {rep!r}")
    support = call("autdegrees.degree_support", degree_support, p + q, p, q)
    bad.extend(lemc_sweep(p + q, call))
    summary = {
        "reps": len(reps),
        "closed_sha256": closed_hash.hexdigest(),
        "tally": dict(sorted(tally.items())),
        "support": list(support.degrees),
    }
    return summary, bad


def warm(entry):
    """Fill the caches a survey of this group reads, without surveying it.

    That is the group's enumeration, the isolation index built on it, the
    closed products (with the real central blocks of O) and the oracle
    results for small modules.
    """
    kind, p, q = parse_group(entry)
    reps = enumerate_reps(Family(kind, p, q))
    {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}[kind](reps[0])
    for rep in reps:
        poincare_closed(rep)
        if module_dim(rep) <= ORACLE_MAX_DIM:
            poincare_oracle(rep)


def summary_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def serve(stdin, stdout) -> None:
    """Answer survey requests until stdin closes."""
    stdout.write('{"ready": true}\n')
    stdout.flush()
    for line in stdin:
        command, entry = json.loads(line)
        if command == "warm":
            warm(entry)
            stdout.write("{}\n")
            stdout.flush()
            continue
        cpu0, t0 = _cpu(), time.perf_counter()
        summary, bad = survey(entry)
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply = {
            "digest": summary_digest(summary),
            "violations": bad,
            "wall": wall,
            "cpu": cpu,
            "maxrss_kb": maxrss_kb,
        }
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
