"""Acceptance gate.

Eleven cross-checks, each pitting an independent implementation or a closed
form against a brute-force companion at desk scale. Everything is exact
integer or rational arithmetic; there are no tolerances anywhere.

Three groups sit outside the theorems being checked (non-semisimple or
non-simple low signatures). Their tests are marked as strict expected
failures right below the criterion they belong to, with the evidence in the
test body, so a future behavior change will surface as a hard error.

Criteria 1 to 4 assert on the sweeps in `cohomreps.checks`, the same ones
`cohomreps verify` runs.
"""

import json
import time
from fractions import Fraction

import pytest

from cohomreps import (
    Family,
    IntPoly,
    degree_support,
    enumerate_reps,
    full_cohomology,
    hyp_chain_epsilon,
    isolated_O,
    isolated_Sp,
    isolated_U_search,
    make_rep,
    parse_glrep,
    poincare_closed,
    r_G,
    repka_diagonal,
    restrict_prediction,
    t1intro_inequalities,
    t_matrix,
)
from cohomreps.checks import run, signatures
from cohomreps.cli import main


# 1. orthogonal isolation search against the inequality battery ------------


def test_criterion_1_orthogonal_isolation_matches_inequalities():
    t0 = time.monotonic()
    # the check leaves out (1,1), covered by the expected-failure test below
    result = run("t1intro", 10)
    assert result["mismatches"] == []
    assert result["cases"] > 90
    assert time.monotonic() - t0 < 60


@pytest.mark.xfail(
    strict=True,
    reason="the identity component at signature (1,1) is abelian; it has a "
    "single parameter, the neighbor search is vacuously isolated while the "
    "inequalities say no",
)
def test_criterion_1_at_signature_1_1():
    rep = make_rep(Family("O", 1, 1), ())
    assert isolated_O(rep).isolated == t1intro_inequalities(1, 1, 0)


# 2. closed defect formula against brute force ------------------------------


def test_criterion_2_defect_formula_matches_brute_force():
    t0 = time.monotonic()
    assert run("lemC", 12) == {"name": "lemC", "scale": 12, "cases": 299, "mismatches": []}
    assert run("lemC") == {"name": "lemC", "scale": 30, "cases": 2060, "mismatches": []}
    assert time.monotonic() - t0 < 10


# 3. closed Poincare products against the exterior-power evaluation ---------


def test_criterion_3_closed_form_matches_invariant_computation():
    t0 = time.monotonic()
    for p, q in signatures(7):
        for rep in enumerate_reps(Family("U", p, q)):
            closed = poincare_closed(rep)
            rebuilt = [0] * (closed.degree + 1 if closed else 1)
            for degree, dim in full_cohomology(rep):
                rebuilt[degree] = dim
            assert IntPoly(rebuilt) == closed, f"mismatch at {rep!r}"
    # hermitian and quaternionic blocks with a + b <= 5
    assert run("gaussian", 5)["mismatches"] == []
    # real blocks SO(a) x SO(b) with a <= b, a + b <= 11, against the
    # Grassmannian product the closed path uses for every O rep
    assert run("grassmannian", 11) == {
        "name": "grassmannian", "scale": 11, "cases": 30, "mismatches": []
    }
    # every U, O and Sp rep with p + q <= 6; Sp(3,4) trivial is past the
    # oracle's budget, so the sweep stops there
    assert run("poincare", 6) == {"name": "poincare", "scale": 6, "cases": 1178, "mismatches": []}
    assert time.monotonic() - t0 < 300


# 4. corner criterion against the neighbor search ---------------------------


def test_criterion_4_explicit_isolation_equals_search():
    result = run("isolation", 10)
    assert result["mismatches"] == []
    assert result["cases"] == 32483


def test_criterion_4_decoded_verdicts_equal_the_indexed_ones():
    # every U, O and Sp rep with p+q <= 7, Sp flag 0 included
    result = run("decode")
    assert result["mismatches"] == []
    assert (result["scale"], result["cases"]) == (7, 3336)


# 5. smallest positive degree equals the family threshold -------------------

VANISHING_EXCEPTIONS = {("O", 1, 1), ("O", 2, 2), ("Sp", 1, 1)}


def test_criterion_5_minimal_positive_degree():
    for kind in ("U", "O", "Sp"):
        for p, q in signatures(10):
            if (kind, p, q) in VANISHING_EXCEPTIONS:
                continue
            fam = Family(kind, p, q)
            degrees = [rep.R for rep in enumerate_reps(fam) if rep.R > 0]
            assert min(degrees) == r_G(fam), f"{kind}({p},{q})"


@pytest.mark.xfail(
    strict=True,
    reason="O(1,1) has no nontrivial parameter at all, the minimum is over "
    "an empty set",
)
def test_criterion_5_at_O_1_1():
    fam = Family("O", 1, 1)
    degrees = [rep.R for rep in enumerate_reps(fam) if rep.R > 0]
    assert degrees and min(degrees) == r_G(fam)


@pytest.mark.xfail(
    strict=True,
    reason="the (2,2) orthogonal group is not simple; the parameter with "
    "one box has degree 1 below the threshold 2",
)
def test_criterion_5_at_O_2_2():
    fam = Family("O", 2, 2)
    degrees = [rep.R for rep in enumerate_reps(fam) if rep.R > 0]
    assert min(degrees) == r_G(fam)


@pytest.mark.xfail(
    strict=True,
    reason="Sp(1,1) has real rank 1 and a degree-1 parameter, while the "
    "family threshold formula gives 2",
)
def test_criterion_5_at_Sp_1_1():
    fam = Family("Sp", 1, 1)
    degrees = [rep.R for rep in enumerate_reps(fam) if rep.R > 0]
    assert min(degrees) == r_G(fam)


# 6. empty-skew parameters are never isolated -------------------------------


def test_criterion_6_empty_skew_never_isolated():
    judges = {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}
    found = 0
    for kind in ("U", "O", "Sp"):
        for p, q in signatures(10):
            if (kind, p, q) == ("O", 1, 1):
                continue  # single parameter, nothing to be non-isolated from
            for rep in enumerate_reps(Family(kind, p, q)):
                if rep.skew.cells:
                    continue
                found += 1
                assert not judges[kind](rep).isolated, f"{rep!r}"
    assert found > 100


# 7. Poincare polynomials are palindromic over their degree range -----------


def test_criterion_7_poincare_duality():
    for kind in ("U", "O", "Sp"):
        for p, q in signatures(10):
            for rep in enumerate_reps(Family(kind, p, q)):
                poly = poincare_closed(rep)
                assert poly.coeffs[: rep.R] == (0,) * rep.R
                assert IntPoly(poly.coeffs[rep.R :]).is_palindromic(), f"{rep!r}"


# 8. degree supports: symmetry, primes, the rank-4 example ------------------


def test_criterion_8_degree_support_properties():
    for n in range(2, 13):
        for p in range(1, n // 2 + 1):
            q = n - p
            ds = degree_support(n, p, q)
            assert sorted(2 * ds.center - d for d in ds.degrees) == list(
                ds.degrees
            )
    for n in (2, 3, 5, 7, 11):
        for p in range(1, n // 2 + 1):
            ds = degree_support(n, p, n - p)
            assert ds.degrees == (p * (n - p),)
    assert degree_support(4, 2, 2).degrees == (2, 4, 6)


# 9. the rank-one chain in exact rationals ----------------------------------


def test_criterion_9_chain_values_and_inequality():
    for n in range(2, 51):
        eps = hyp_chain_epsilon(n)
        assert eps == Fraction(n) - Fraction(6, 5)
        assert Fraction(n - 1) > eps


# 10. restriction calculus sanity -------------------------------------------


def test_criterion_10_gl_restriction_sanity():
    for text in ["u(1,5)", "u(2,3)", "u(1,2)[1/4]+u(1,2)", "u(2,2)[1/3]+u(1,3)"]:
        T = t_matrix(parse_glrep(text))
        assert sorted(T) == sorted(-x for x in T)
        for m in range(1, len(T) + 1):
            for mode in ("outer", "top"):
                pred = restrict_prediction(T, m, mode)
                assert tuple(max(x, Fraction(0)) for x in pred) == pred
    for n in range(1, 9):
        T = t_matrix(parse_glrep(f"u(1,{n})"))
        for m in range(1, n + 1):
            assert restrict_prediction(T, m)[0] == Fraction(m - 1, 2)
    out = repka_diagonal(Fraction(6, 10), Fraction(6, 10))
    assert out.kind == "complementary" and out.parameter == Fraction(1, 5)


# 11. byte-identical command line output ------------------------------------

BATTERY = [
    ["enumerate", "U", "1", "1"],
    ["enumerate", "U", "2", "2"],
    ["enumerate", "O", "2", "3"],
    ["enumerate", "Sp", "1", "1"],
    ["enumerate", "O", "3", "4", "--format", "tsv"],
    ["cohomology", "U", "1", "1"],
    ["cohomology", "U", "2", "2"],
    ["cohomology", "O", "2", "3", "--lambda", "[1,1]"],
    ["cohomology", "Sp", "1", "2", "--flag", "0"],
    ["isolate", "U", "3", "4", "--lambda", "[1,1,1]", "--mu", "[3,3,3]"],
    ["isolate", "U", "2", "2"],
    ["isolate", "O", "3", "4", "--lambda", "[1,1,1]"],
    ["isolate", "O", "2", "4", "--lambda", "[1,1]"],
    ["isolate", "Sp", "2", "3", "--lambda", "[]", "--mu", "[3,3]", "--flag", "0"],
    ["degrees", "4", "2", "2"],
    ["degrees", "6", "1", "5"],
    ["coverage", "U", "2", "3", "--lambda", "[1,1]", "--mu", "[2,2]"],
    ["coverage", "O", "3", "6", "--lambda", "[2,2,2]"],
    ["restrict", "u(1,3)", "1"],
    ["restrict", "u(1,3)+u(2,2)[1/3]", "2", "--clip-mode", "top"],
    ["verify", "lemC", "--max-n", "8"],
    ["verify", "gaussian", "--max-pq", "3"],
]


def test_criterion_11_cli_determinism(capsys):
    def run_battery():
        outputs = []
        for argv in BATTERY:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.out}"
            outputs.append(captured.out.encode())
        return outputs

    first = run_battery()
    second = run_battery()
    assert first == second
    # every JSON document in the battery parses and self-identifies
    for argv, blob in zip(BATTERY, first):
        if "--format" in argv:
            continue
        doc = json.loads(blob)
        assert doc["schema"] == 1
        assert doc["input"]["command"] == argv[0]
