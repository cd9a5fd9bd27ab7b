"""Fixed operation pools, seeded op lists and output checks.

Every workload draws its operations from a fixed pool. A run is a sequence
of passes; each pass is the whole pool in an order drawn from the seed, so
every run measures the same mix of operations whatever its seed, and only
the order (and with it which caches happen to be warm) changes.
"""

from __future__ import annotations

import hashlib
import json
import random

# Operation counts that are known independently of the seed commit.
KNOWN_COUNTS = {
    ("U", 3, 3): 120,
    ("U", 4, 4): 842,
    ("U", 5, 5): 6090,
    ("Sp", 5, 5): 7966,
}

# cold-enum: fresh CLI processes whose cost is the C(p+q,p)^2 pair scan of
# enumeration and the isolation index built on top of it. The non-trivial
# reps have Levi modules of dimension 10-14, so the traced run can also
# time the characters layer on them cheaply.
COLD_ENUM = [
    "enumerate U 4 4",
    "enumerate U 4 5",
    "enumerate U 5 5",
    "enumerate Sp 4 4",
    "enumerate Sp 4 5",
    "enumerate Sp 5 5",
    "enumerate O 6 6",
    "enumerate O 7 7",
    "enumerate O 8 8",
    "isolate U 4 4 --lambda [3] --mu [4,2,2]",
    "isolate U 4 5 --lambda [3,3,3] --mu [5,5,3,3]",
    "isolate U 5 5 --lambda [4,2,2,2] --mu [5,4,2,2,2]",
    "isolate Sp 4 4 --lambda [3,2,1] --mu [4,3,2,1] --flag 0",
    "isolate Sp 4 5 --lambda [3,3,3] --mu [5,5,3,3] --flag 1",
    "isolate O 6 6 --lambda [4,4,4]",
    "isolate O 7 7 --lambda [5,5,5,3]",
    "isolate O 8 8 --lambda [7,5,5,3,3,1,1,1]",
    "coverage U 5 5 --lambda [4,2,2,2] --mu [5,4,2,2,2]",
    "coverage Sp 4 5 --lambda [3,3,3] --mu [5,5,3,3] --flag 1",
    "coverage O 8 8 --lambda [7,5,5,3,3,1,1,1]",
]

# cold-oracle: fresh CLI processes running the default cohomology path, so
# the Weyl-integration oracle runs on a Levi module of dimension 16-25 and
# enumeration is never called. U(4,4) trivial (about 100 s, 2.4 GB) is left
# out on purpose; the per-op guards would kill it.
COLD_ORACLE = [
    "cohomology U 2 5 --lambda [] --mu [4,4]",
    "cohomology U 4 4 --lambda [1,1] --mu [4,4,1,1]",
    "cohomology U 4 4 --lambda [2,2] --mu [4,4,2,2]",
    "cohomology U 4 4 --lambda [2] --mu [4,2,2,2]",
    "cohomology U 3 5 --lambda [2,2] --mu [5,5,2]",
    "cohomology O 4 6 --lambda [1,1,1,1]",
    "cohomology Sp 2 2 --flag 0",
    "cohomology Sp 2 4 --lambda [4] --mu [4,4] --flag 0",
    "cohomology U 3 3",
    "cohomology U 3 5 --lambda [1,1] --mu [5,5,1]",
    "cohomology O 6 6 --lambda [5,1,1,1,1]",
    "cohomology O 5 6 --lambda [6]",
    "cohomology Sp 3 3 --lambda [2] --mu [3,2,2] --flag 0",
    "cohomology U 2 5",
    "cohomology U 4 4 --lambda [1,1,1] --mu [4,4,4,1]",
    "cohomology O 5 6 --lambda [1,1,1,1,1]",
    "cohomology O 4 7 --lambda [1,1,1,1]",
    "cohomology U 3 4",
    "cohomology O 5 5",
    "cohomology Sp 2 3 --flag 0",
]

# warm-survey: one long-lived process surveying every U, Sp and O group
# with p + q <= 9. Signatures (p,q) and (q,p) give isomorphic groups, so
# only p <= q is kept: 60 groups and 14 443 reps per pass.
WARM_SURVEY = [
    f"survey {kind} {p} {n - p}"
    for kind in ("U", "Sp", "O")
    for n in range(2, 10)
    for p in range(1, n // 2 + 1)
]

# Smoke pools: a few cheap entries of each pool, for the self-tests.
SMOKE = {
    "cold-enum": [
        "enumerate U 4 4",
        "isolate U 4 4 --lambda [3] --mu [4,2,2]",
        "coverage O 8 8 --lambda [7,5,5,3,3,1,1,1]",
    ],
    "cold-oracle": [
        "cohomology U 2 5 --lambda [] --mu [4,4]",
        "cohomology Sp 2 2 --flag 0",
        "cohomology O 4 6 --lambda [1,1,1,1]",
    ],
    "warm-survey": ["survey U 1 2", "survey Sp 2 2", "survey O 2 3"],
}


class Workload:
    """One named workload: its pool and how its runs are sized."""

    def __init__(self, name, pool, tail_pct, min_ops, warm):
        self.name = name
        self.pool = pool
        # The tail percentile is fixed per workload: the highest one that
        # leaves at least ten samples beyond it at min_ops operations.
        self.tail_pct = tail_pct
        self.min_ops = min_ops
        self.warm = warm

    def passes(self, seed, smoke=False):
        """Endless seeded passes; each is a permutation of the pool."""
        pool = SMOKE[self.name] if smoke else self.pool
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield order


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-enum", COLD_ENUM, 75, 40, warm=False),
        Workload("cold-oracle", COLD_ORACLE, 75, 40, warm=False),
        Workload("warm-survey", WARM_SURVEY, 90, 100, warm=True),
    )
}


def all_entries():
    entries = []
    for w in WORKLOADS.values():
        entries.extend(w.pool)
    return entries


def parse_group(entry):
    """(kind, p, q) of a pool entry, for CLI and survey entries alike."""
    words = entry.split()
    return words[1], int(words[2]), int(words[3])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(entry, stdout: bytes):
    """Invariants of one CLI payload; returns a list of violations."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    command = entry.split()[0]
    bad = []
    if command == "cohomology" and doc.get("poincare_oracle") != doc.get("poincare_closed"):
        bad.append("poincare_oracle != poincare_closed")
    if command == "enumerate":
        known = KNOWN_COUNTS.get(parse_group(entry))
        if doc.get("count") != len(doc.get("reps", ())):
            bad.append("count does not match the number of reps")
        if known is not None and doc.get("count") != known:
            bad.append(f"count {doc.get('count')} != known {known}")
    if command == "isolate" and doc.get("explicit") is not None:
        if doc["explicit"]["isolated"] != doc["unitary_dual"]["isolated"]:
            bad.append("search and explicit isolation verdicts disagree")
    return bad
