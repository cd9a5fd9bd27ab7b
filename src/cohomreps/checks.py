"""Cross-checks between independent implementations, shared by the
acceptance tests and `cohomreps verify`.

Each check is written once, as a generator of (case label, agrees) pairs
over every case up to a scale; `run` condenses one into a result. A sweep
imports the modules it compares when it starts, so loading the registry
loads none of them.
"""

from __future__ import annotations


def signatures(total: int):
    """All (p, q) with p, q >= 1 and p + q <= total."""
    for p in range(1, total):
        for q in range(1, total - p + 1):
            yield p, q


def sweep_lemC(max_n: int):
    """N(b, n, p) against lemC_bruteforce, which must also find uniform parity."""
    from .autdegrees import N, lemC_bruteforce

    for n in range(1, max_n + 1):
        for b in range(1, n + 1):
            if n % b:
                continue
            for p in range(n + 1):
                best, uniform = lemC_bruteforce(n // b, b, p)
                yield f"n={n} b={b} p={p}", best == N(b, n, p) and uniform


def sweep_gaussian(max_pq: int):
    """The oracle on one hermitian or quaternionic block against a Gaussian binomial."""
    from .characters import invariant_poincare
    from .polynomials import gaussian_binomial
    from .reps import BLOCKS, group_and_module

    for a, b in signatures(max_pq):
        expected = gaussian_binomial(a + b, a)
        for style in ("her", "quat"):
            group, chi = group_and_module(((style, a, b),))
            step = BLOCKS[style][1]
            yield f"{style} {a}x{b}", invariant_poincare(group, chi) == expected.inflate(step)


def sweep_grassmannian(max_pq: int):
    """The oracle on one real block SO(a) x SO(b), a <= b, against the
    Grassmannian product that the closed Poincare path uses."""
    from .characters import invariant_poincare
    from .polynomials import grassmannian_poincare
    from .reps import group_and_module

    for a, b in signatures(max_pq):
        if a <= b:
            group, chi = group_and_module((("real", a, b),))
            yield f"real {a}x{b}", invariant_poincare(group, chi) == grassmannian_poincare(a, b)


def sweep_count(max_pq: int):
    """The dynamic-programming count against the enumeration, on every U, O
    and Sp group."""
    from .reps import FAMILIES, Family, count_reps, enumerate_reps

    for kind in FAMILIES:
        for p, q in signatures(max_pq):
            fam = Family(kind, p, q)
            yield f"{kind}({p},{q})", count_reps(fam) == len(enumerate_reps(fam))


def sweep_poincare(max_pq: int):
    """The closed Poincare product against the oracle, on every U, O and Sp rep."""
    from .reps import FAMILIES, Family, enumerate_reps, poincare_closed, poincare_oracle, text_form

    for kind in FAMILIES:
        for p, q in signatures(max_pq):
            for rep in enumerate_reps(Family(kind, p, q)):
                yield text_form(rep), poincare_closed(rep) == poincare_oracle(rep)


def sweep_t1intro(max_pq: int):
    """Orthogonal isolation of A((r^p)) by search against the inequalities."""
    from .isolation import isolated_O, t1intro_inequalities
    from .reps import Family, make_rep

    for p, q in signatures(max_pq):
        # The identity component of O(1,1) is abelian with one parameter, so
        # the search is vacuous there; the acceptance tests xfail it.
        if (p, q) == (1, 1):
            continue
        for r in range(q // 2 + 1):
            rep = make_rep(Family("O", p, q), (r,) * p)
            yield f"O({p},{q}) r={r}", isolated_O(rep).isolated == t1intro_inequalities(p, q, r)


def sweep_isolation(max_pq: int):
    """The explicit corner criterion against the neighbor search on U(p,q)."""
    from .isolation import isolated_U_explicit, isolated_U_search
    from .reps import Family, enumerate_reps, text_form

    for p, q in signatures(max_pq):
        for rep in enumerate_reps(Family("U", p, q)):
            agrees = isolated_U_explicit(rep).isolated == isolated_U_search(rep).isolated
            yield text_form(rep), agrees


def sweep_decode(max_pq: int):
    """The verdicts of `verdicts`, which decodes each neighbor mask, against
    the searches over the group's neighbor table, on every U, O and Sp rep;
    and the closed witness count of each rep's own cell mask against the
    length of its decoded list."""
    from .isolation import decode, isolated_d0, isolated_O, isolated_Sp
    from .isolation import isolated_U_explicit, isolated_U_search, verdicts, witness_count
    from .reps import FAMILIES, Family, enumerate_reps, text_form

    dual = {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}
    for kind in FAMILIES:
        for p, q in signatures(max_pq):
            for rep in enumerate_reps(Family(kind, p, q)):
                explicit = isolated_U_explicit(rep) if kind == "U" else None
                agrees = verdicts(rep) == (dual[kind](rep), explicit, isolated_d0(rep))
                count = witness_count(kind, p, q, rep.skew.cells)
                yield text_form(rep), agrees and count == len(decode(kind, p, q, rep.skew.cells))


# Each check with its default scale: n for lemC, p+q (a+b for one block)
# for the others.
CHECKS = {
    "lemC": (sweep_lemC, 30),
    "count": (sweep_count, 10),
    "gaussian": (sweep_gaussian, 4),
    "grassmannian": (sweep_grassmannian, 9),
    "poincare": (sweep_poincare, 4),
    "t1intro": (sweep_t1intro, 9),
    "isolation": (sweep_isolation, 9),
    "decode": (sweep_decode, 7),
}


def run(name: str, scale=None) -> dict:
    """Run one check, at its default scale unless one is given; the result
    lists the labels of the disagreeing cases."""
    sweep, default = CHECKS[name]
    scale = default if scale is None else scale
    cases = 0
    mismatches = []
    for label, agrees in sweep(scale):
        cases += 1
        if not agrees:
            mismatches.append(label)
    return {"name": name, "scale": scale, "cases": cases, "mismatches": mismatches}
