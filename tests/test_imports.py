"""What the package and its modules import, and when."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohomreps

SRC = Path(__file__).resolve().parents[1] / "src" / "cohomreps"

# The package's public names: every submodule but cli and checks, and what
# each exports.
PUBLIC = [
    "BadRank", "BoxOverflow", "CONDITIONAL_NOTE", "Character", "CohRep",
    "CohomrepsError", "CompactGroupSpec", "CoverageTag", "DegreeSet",
    "DomainError", "Family", "GLBlock", "GLRep", "InexactDivision", "IntPoly",
    "InvariantViolation", "IsolationVerdict", "N", "NotADivisor",
    "NotCompatible", "NotNested", "NotOrthogonal", "OrthogonalDecomposition",
    "PalindromeViolation", "Rectangle", "RepkaResult", "SignatureMismatch",
    "SkewDecomposition", "WrongFamily", "admits_flag_zero", "autdegrees",
    "block_tags", "canonical", "characters", "compatible_pairs", "complement",
    "conjugate", "contains", "count_orthogonal", "count_pairs", "count_reps", "degree_support",
    "enumerate_partitions_in_box",
    "enumerate_reps", "errors", "factor_roots", "format_partition",
    "full_cohomology", "gaussian_binomial", "glrestrict", "group_and_module",
    "hodge_type", "hyp_chain_epsilon", "hyp_transfer", "invariant_poincare",
    "is_compatible", "is_orthogonal", "isolated_O", "isolated_Sp",
    "isolated_U_explicit", "isolated_U_search", "isolated_d0", "isolation",
    "iter_reps", "lemC_bruteforce", "li_coverage", "lp_character", "make_rep",
    "orthogonal_decomposition", "orthogonal_partitions", "parse_glrep",
    "parse_partition", "partitions", "poincare_closed", "poincare_oracle",
    "polynomials", "prediction_modes_disagree", "r_G",
    "rectangle_decomposition", "rel_threshold_met", "relth_coverage",
    "repka_diagonal", "reps", "restrict_prediction", "rho", "rho_rank1",
    "skew_box_set", "standard_weights", "t1intro_inequalities", "t_matrix",
    "text_form", "trivial_rep", "verdicts",
]


def test_no_private_imports_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("cohomreps")
            ):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert found == []


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert found == []


def test_public_names_resolve_lazily():
    assert len(PUBLIC) == 93
    assert cohomreps.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(cohomreps))
    for name in PUBLIC:
        assert getattr(cohomreps, name) is not None
    star = {}
    exec("from cohomreps import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == PUBLIC
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cohomreps.nope  # noqa: B018


# Modules that neither subcommand uses; dataclasses and fractions are the
# expensive standard-library imports an eager package used to pull in.
UNUSED = [
    "cohomreps.autdegrees",
    "cohomreps.glrestrict",
    "cohomreps.isolation",
    "cohomreps.checks",
    "dataclasses",
    "fractions",
]


# Only cohomology builds a polynomial or runs the Weyl-integration engine;
# a one-shot isolate decodes its neighbors, so it neither enumerates the
# group nor builds its index.
COHOMOLOGY_ONLY = ["cohomreps.characters", "cohomreps.polynomials"]


@pytest.mark.parametrize(
    "command, unused, empty_caches",
    [
        ("cohomology", UNUSED, []),
        ("enumerate", [*UNUSED, *COHOMOLOGY_ONLY], []),
        (
            "isolate",
            [m for m in [*UNUSED, *COHOMOLOGY_ONLY] if m != "cohomreps.isolation"],
            ["reps._enumerate_cached", "isolation._index"],
        ),
        ("coverage", [m for m in [*UNUSED, *COHOMOLOGY_ONLY] if m != "cohomreps.autdegrees"], []),
    ],
    ids=["cohomology", "enumerate", "isolate", "coverage"],
)
def test_subcommand_loads_only_what_it_uses(command, unused, empty_caches):
    code = (
        "import contextlib, io, json, sys\n"
        "from cohomreps import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main([{command!r}, 'U', '2', '2'])\n"
        f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
        "from cohomreps import isolation, reps\n"
        f"filled = [c for c in {empty_caches!r} if eval(c).cache_info().currsize]\n"
        "print(json.dumps([code, loaded, filled]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True
    )
    assert json.loads(proc.stdout) == [0, [], []]
