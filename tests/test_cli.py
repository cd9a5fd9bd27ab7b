"""Command line behavior: payload shapes, exit codes, self-verification."""

import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from cohomreps import Family, __version__, checks, count_reps, enumerate_reps, text_form
from cohomreps.cli import main
from cohomreps.reps import FAMILIES

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_enumerate_u11(capsys):
    code, doc = run_json(capsys, "enumerate", "U", "1", "1")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["version"] == __version__
    assert doc["input"] == {"command": "enumerate", "family": "U", "p": 1, "q": 1}
    assert doc["count"] == 3
    texts = [row["text"] for row in doc["reps"]]
    assert texts == ["U(1,1) A[[]|[]]", "U(1,1) A[[]|[1]]", "U(1,1) A[[1]|[1]]"]


@pytest.mark.parametrize("kind", ["U", "O", "Sp"])
def test_enumerate_json_is_json_dumps(capsys, kind):
    # enumerate writes its rows itself; the bytes must be those of json.dumps
    # and the rows those of the reps. U(5,5) and Sp(5,5) have rows enough for
    # several chunks of the stream.
    for p, q in [*checks.signatures(8), (5, 5)]:
        code, out = run(capsys, "enumerate", kind, str(p), str(q))
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        reps = enumerate_reps(Family(kind, p, q))
        assert doc["count"] == len(reps)
        assert doc["reps"] == [
            {
                "text": text_form(rep),
                "lambda": list(rep.lam),
                "mu": list(rep.mu),
                "flag": rep.flag,
                "R": rep.R,
                "rectangles": [list(r) for r in rep.skew.rectangles],
            }
            for rep in reps
        ]


# The child reports its own peak RSS (VmHWM). Linux carries the parent's
# RSS at fork into a child's ru_maxrss across exec, so os.wait4 would read
# the size of the test process instead of the command's.
_PEAK_CHILD = (
    "import sys; from cohomreps.cli import main; code = main(sys.argv[1:]); "
    "sys.stdout.flush(); status = open('/proc/self/status').read(); "
    "sys.stderr.write(status.split('VmHWM:')[1].split()[0]); sys.exit(code)"
)


def max_rss_kb(*argv):
    """Peak RSS of a fresh CLI process whose output goes to devnull."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", _PEAK_CHILD, *argv]
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == 0
    return int(proc.stderr)


def test_enumerate_memory_does_not_grow_with_the_output():
    # 44 910 rows, 17 MB of JSON, and 58 650 rows of O, whose partitions
    # never repeat, 37 MB, against the 3 rows of U(1,1)
    base = max_rss_kb("enumerate", "U", "1", "1")
    for argv in [("enumerate", "U", "6", "6"), ("enumerate", "O", "12", "12")]:
        assert max_rss_kb(*argv) - base < 8 * 1024, argv


@pytest.mark.parametrize(
    "argv, family",
    [
        (("enumerate", "U", "8", "8"), ("U", 8, 8)),
        (("enumerate", "U", "20", "20"), ("U", 20, 20)),
        (("isolate", "U", "20", "20", "--lambda", "[]", "--mu", "[1]"), ("U", 20, 20)),
    ],
)
def test_oversized_group_exits_3_before_any_output(argv, family):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cohomreps.cli", *argv], capture_output=True, env=env, timeout=60
    )
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert proc.stdout.decode() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["error"]["type"] == "DomainError"
    _, p, q = family
    if argv[0] == "isolate":
        # refused for its witnesses, not its group: flipping the one cell
        # (1, 1) leaves the empty skew, which the C(p + q, p) pairs lam = mu
        # carry, and growing it to (1, 2) or to (2, 1) gives one pair each
        expected = comb(p + q, p) + 2
    else:
        expected = count_reps(Family(*family))
    assert str(expected) in doc["error"]["message"]


def test_enumerate_tsv(capsys):
    code, out = run(capsys, "enumerate", "O", "2", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "text\tlambda\tmu\tflag\tR"
    assert len(lines) == 5  # header plus four parameters
    assert all(line.count("\t") == 4 for line in lines)


def test_enumerate_tsv_rows_are_the_reps(capsys):
    code, out = run(capsys, "enumerate", "O", "2", "3", "--format", "tsv")
    assert code == 0
    assert out == (
        "text\tlambda\tmu\tflag\tR\n"
        "O(2,3) A[[]]\t[]\t[3, 3]\t-\t0\n"
        "O(2,3) A[[1,1]]\t[1, 1]\t[2, 2]\t-\t2\n"
        "O(2,3) A[[2]]\t[2]\t[3, 1]\t-\t2\n"
        "O(2,3) A[[2,1]]\t[2, 1]\t[2, 1]\t-\t3\n"
        "O(2,3) A[[3]]\t[3]\t[3]\t-\t3\n"
    )
    for kind in ("U", "O", "Sp"):
        for p, q in checks.signatures(6):
            code, out = run(capsys, "enumerate", kind, str(p), str(q), "--format", "tsv")
            lines = ["text\tlambda\tmu\tflag\tR"]
            for rep in enumerate_reps(Family(kind, p, q)):
                flag = "-" if rep.flag is None else str(rep.flag)
                cells = [text_form(rep), str(list(rep.lam)), str(list(rep.mu)), flag, str(rep.R)]
                lines.append("\t".join(cells))
            assert code == 0
            assert out == "\n".join(lines) + "\n", f"{kind}({p},{q})"


def cold_pools():
    """The cold-enum and cold-oracle operations of the benchmark."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [entry.split() for entry in workloads.COLD_ENUM + workloads.COLD_ORACLE]


# The digest of the exit codes and outputs below, recorded before the Levi
# modules and the roots were derived from the standard weights; it changes
# when an output or one of the pools does.
CLI_DIGEST = "b394c0b766fb50ca47dcbfe519318d17b236fe1ae445f89c6bc119f0a322a2ed"


def test_cohomology_and_cold_pool_outputs_are_pinned(capsys):
    def brackets(xs):
        return "[" + ",".join(map(str, xs)) + "]"

    argvs = []
    for kind in FAMILIES:
        for p, q in checks.signatures(5):
            for rep in enumerate_reps(Family(kind, p, q)):
                argv = ["cohomology", kind, str(p), str(q)]
                argv += ["--lambda", brackets(rep.lam), "--mu", brackets(rep.mu)]
                if rep.flag is not None:
                    argv += ["--flag", str(rep.flag)]
                argvs += [argv, argv + ["--closed-only"], argv + ["--format", "tsv"]]
    argvs += cold_pools()
    assert len(argvs) == 1270
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLI_DIGEST


def test_cohomology_trivial_u11(capsys):
    code, doc = run_json(capsys, "cohomology", "U", "1", "1")
    assert code == 0
    assert doc["R"] == 0
    assert doc["hodge"] == [0, 0]
    assert doc["poincare_closed"] == [1, 0, 1]
    assert doc["poincare_oracle"] == [1, 0, 1]
    assert doc["cohomology"] == [[0, 1], [2, 1]]
    assert doc["levi_blocks"] == [["her", 1, 1]]


def test_cohomology_closed_only_skips_oracle(capsys):
    code, doc = run_json(
        capsys, "cohomology", "U", "2", "2", "--closed-only"
    )
    assert code == 0
    assert doc["poincare_oracle"] is None
    assert doc["cohomology"][0] == [0, 1]
    # the real central block SO(7) x SO(7) has a closed form; the oracle's
    # join on it is past JOIN_WORK_BUDGET
    code, doc = run_json(capsys, "cohomology", "O", "7", "7", "--closed-only")
    assert code == 0
    assert doc["levi_blocks"] == [["real", 7, 7]]
    assert doc["poincare_closed"][:5] == [1, 0, 0, 0, 1]
    assert len(doc["poincare_closed"]) == 50 and doc["poincare_closed"][-1] == 1


def test_cohomology_sp_flag_argument(capsys):
    code, doc = run_json(capsys, "cohomology", "Sp", "1", "2", "--flag", "0")
    assert code == 0
    assert doc["rep"] == "Sp(1,2) A[[]|[2]]_0"
    assert doc["poincare_closed"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_isolate_trivial_u22(capsys):
    code, doc = run_json(capsys, "isolate", "U", "2", "2")
    assert code == 0
    assert doc["unitary_dual"]["isolated"] is True
    assert doc["explicit"]["isolated"] is True
    assert doc["degree_zero"]["isolated"] is True


def test_isolate_orthogonal_witness(capsys):
    code, doc = run_json(capsys, "isolate", "O", "2", "4", "--lambda", "[1,1]")
    assert code == 0
    assert doc["unitary_dual"]["isolated"] is False
    assert "A[[2,1]]" in doc["unitary_dual"]["witnesses"]
    assert doc["explicit"] is None


def test_degrees_payload(capsys):
    code, doc = run_json(capsys, "degrees", "4", "2", "2")
    assert code == 0
    assert doc["support"] == [2, 4, 6]
    assert doc["center"] == 4
    assert doc["parity_uniform"] is True
    assert "unproved" in doc["conditional_on"]
    assert doc["divisors"] == [
        {"b": 2, "N": 2, "interval": [2, 6]},
        {"b": 4, "N": 0, "interval": [4, 4]},
    ]


def run_bounded(*argv, seconds):
    """A fresh CLI process under a 1 GiB address space, killed past seconds."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "cohomreps.cli", *argv]
    return subprocess.run(argv, capture_output=True, env=env, timeout=seconds, preexec_fn=limit)


def test_oversized_degree_support_exits_3_with_its_size():
    proc = run_bounded("degrees", "5000", "2500", "2500", seconds=20)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "DomainError"
    assert "has 3125001 degrees" in doc["error"]["message"]


def test_prime_rank_degrees_answer_fast():
    # n is prime, so its only divisor b > 1 is n and the support is pq alone
    n = 1_000_000_000_039
    proc = run_bounded("degrees", str(n), "1", str(n - 1), seconds=5)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["support"] == [n - 1]


# One input past each size bound that exits 3 before the work starts: the
# closed product, the divisor walk of degrees, the exponents of restrict,
# the enumeration guard (a thin box counted exactly), the grid points of a
# box, which every group is checked against before any rep is built, and
# the cells and row reads of a decoded isolation search.
@pytest.mark.parametrize(
    "argv, message",
    [
        (("cohomology", "U", "300", "300"), "has degree 180000"),
        (("cohomology", "U", "300", "300", "--closed-only"), "has degree 180000"),
        (("degrees", "1000000000000000003", "1", "1000000000000000002"), "n=1000000000000000003"),
        (("restrict", "u(1,100000000)", "1"), "GL(100000000)"),
        (("enumerate", "U", "1", "30000"), "U(1,30000) has 450045001 representations"),
        (("enumerate", "U", "2000", "2000"), "the 2000x2000 box has 4004001 grid points"),
        (("isolate", "U", "300", "300"), "flips 90000 cells and reads 27000000 rows"),
        (
            ("isolate", "U", "1", "1000000", "--lambda", "[]", "--mu", "[]"),
            "the 1x1000000 box has 2000002 grid points",
        ),
        (("isolate", "U", "1001", "1"), "flips 1001 cells and reads 1002001 rows"),
        (("isolate", "U", "1000000", "1"), "the 1000000x1 box has 2000002 grid points"),
        (("coverage", "U", "1000000", "1"), "the 1000000x1 box has 2000002 grid points"),
        (
            ("cohomology", "U", "1000000", "1", "--closed-only"),
            "the 1000000x1 box has 2000002 grid points",
        ),
        (("isolate", "U", "1000000000", "1"), "the 1000000000x1 box has 2000000002 grid points"),
    ],
    ids=[
        "cohomology", "cohomology-closed", "degrees", "restrict", "enumerate", "count",
        "isolate-cells", "isolate-wide", "isolate-rows", "isolate-tall", "coverage-tall",
        "cohomology-tall", "isolate-huge",
    ],
)
def test_oversized_inputs_exit_3_at_once(argv, message):
    proc = run_bounded(*argv, seconds=10)
    assert proc.returncode == 3
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "DomainError"
    assert message in error["message"]


def test_coverage_payload(capsys):
    code, doc = run_json(
        capsys, "coverage", "U", "2", "3", "--lambda", "[1,1]", "--mu", "[2,2]"
    )
    assert code == 0
    assert doc["li"] == {"tag": "Q2", "source": "LiGen"}
    assert doc["relth"] == {"tag": "Q2", "source": "ttt"}


def test_restrict_payload(capsys):
    code, doc = run_json(capsys, "restrict", "u(1,3)", "1")
    assert code == 0
    assert doc["T"] == ["1", "0", "-1"]
    assert doc["prediction"] == ["0"]
    assert doc["modes_disagree"] is False
    assert doc["clip_mode"] == "outer"


def test_restrict_top_mode(capsys):
    code, doc = run_json(
        capsys, "restrict", "u(1,1)[1/3]+u(1,1)", "2", "--clip-mode", "top"
    )
    assert code == 0
    assert doc["prediction"] == ["0", "0"]
    assert doc["modes_disagree"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lemC", "--max-n", "6"),
        ("verify", "gaussian", "--max-pq", "3"),
        ("verify", "grassmannian", "--max-pq", "8"),
        ("verify", "t1intro", "--max-pq", "6"),
        ("verify", "isolation", "--max-pq", "6"),
        ("verify", "all", "--max-n", "6", "--max-pq", "5"),
        ("verify", "poincare", "--max-pq", "4"),
        ("verify", "count", "--max-pq", "6"),
        ("verify", "decode", "--max-pq", "5"),
    ],
)
def test_verify_passes(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["ok"] is True
    assert all(c["cases"] > 0 and not c["mismatches"] for c in doc["checks"])


@pytest.mark.parametrize(
    "argv, reads",
    [(("lemC", "--max-pq", "3"), "--max-n"), (("poincare", "--max-n", "3"), "--max-pq")],
)
def test_verify_refuses_the_option_its_check_does_not_read(capsys, argv, reads):
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{argv[0]} reads {reads} only" in err


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "lemC", (lambda scale: [("a", True), ("b", False)], 12))
    code, doc = run_json(capsys, "verify", "lemC", "--max-n", "2")
    assert code == 1
    assert doc["ok"] is False
    assert doc["checks"] == [{"name": "lemC", "scale": 2, "cases": 2, "mismatches": ["b"]}]


def test_verify_fails_a_check_with_no_cases(capsys):
    # no signature has p + q <= 1
    code, doc = run_json(capsys, "verify", "t1intro", "--max-pq", "1")
    assert code == 1
    assert doc["ok"] is False
    assert doc["checks"] == [{"name": "t1intro", "scale": 1, "cases": 0, "mismatches": []}]


def close_stdout_early(*argv):
    """Exit code and stderr of a CLI process whose reader closes stdout
    after 10 bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "cohomreps.cli", *argv]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        # the payload is larger than a pipe buffer, so the writer is still
        # busy when the read end closes
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        return proc.wait(timeout=60), stderr


def test_closed_stdout_is_not_a_traceback():
    assert close_stdout_early("enumerate", "U", "4", "4") == (1, b"")


def test_closed_stdout_mid_stream_is_not_a_traceback():
    # U(6,6) is written in many chunks, so the pipe closes between writes
    assert close_stdout_early("enumerate", "U", "6", "6") == (1, b"")


# U(7,7) is refused before its million targets are multiplied out, U(9,9)
# and U(1,10) before the half denominator of U(9) or U(10) is, the other two
# while their first half series grows
@pytest.mark.parametrize(
    "argv",
    [("Sp", "3", "4", "--flag", "0"), ("U", "5", "5"), ("U", "7", "7"), ("U", "9", "9"), ("U", "1", "10")],
)
def test_oracle_past_budget_exits_3_fast(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cohomreps.cli", "cohomology", *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert time.monotonic() - t0 < 10
    assert proc.returncode == 3
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "DomainError"
    assert "--closed-only" in error["message"]


def test_usage_error_exits_2(capsys):
    assert main(["enumerate", "X", "1", "1"]) == 2
    assert main([]) == 2
    assert main(["cohomology", "U", "two", "2"]) == 2


def test_domain_error_exits_3(capsys):
    code, doc = run_json(
        capsys, "cohomology", "U", "2", "2", "--lambda", "[1]", "--mu", "[2,2]"
    )
    assert code == 3
    assert doc["error"]["type"] == "NotCompatible"
    assert "schema" in doc


def test_zero_twist_denominator_exits_3(capsys):
    code, doc = run_json(capsys, "restrict", "u(1,2)[1/0]", "1")
    assert code == 3
    assert doc["error"]["type"] == "DomainError"


def test_degrees_signature_error(capsys):
    code, doc = run_json(capsys, "degrees", "5", "2", "2")
    assert code == 3
    assert doc["error"]["type"] == "SignatureMismatch"


def test_bad_partition_literal(capsys):
    code, doc = run_json(
        capsys, "cohomology", "U", "2", "2", "--lambda", "oops", "--mu", "[2,2]"
    )
    assert code == 3
    assert doc["error"]["type"] == "ValueError"


def test_partition_literal_too_deep_to_decode_exits_3(capsys):
    text = "[" * 100_000
    code, doc = run_json(capsys, "isolate", "U", "2", "2", "--lambda", text)
    assert code == 3
    message = f"not a partition literal: {text[:40]!r} (100000 characters)"
    assert doc["error"] == {"type": "ValueError", "message": message}


# The answer to a refused literal does not grow with the literal.
@pytest.mark.parametrize("text", ["[" * 100_000, "x" * 100_000, '"' + "1" * 100_000 + '"'])
def test_refused_partition_literal_error_stays_under_1_kb(capsys, text):
    code, out = run(capsys, "isolate", "U", "2", "2", "--lambda", text)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ValueError"
    assert len(out.encode()) < 1024


# Nor does the answer to a literal that parses but is not a partition.
@pytest.mark.parametrize(
    "text, fault",
    [
        (json.dumps(list(range(20_000))), "weakly decreasing"),
        (json.dumps(["x" * 50_000]), "integers"),
        (json.dumps([[1] * 30_000]), "integers"),
        (json.dumps([1] * 20_000 + [-1]), "negative part"),
    ],
    ids=["increasing", "long-string-part", "long-list-part", "negative"],
)
def test_refused_parts_error_stays_under_1_kb(capsys, text, fault):
    code, out = run(capsys, "isolate", "U", "2", "2", "--mu", "[2,2]", "--lambda", text)
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and fault in error["message"]
    assert len(out.encode()) < 1024


def test_version_flag(capsys):
    code, out = run(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_tsv_key_value_fallback(capsys):
    code, out = run(capsys, "degrees", "4", "2", "2", "--format", "tsv")
    assert code == 0
    rows = dict(
        line.split("\t", 1) for line in out.strip().split("\n")
    )
    assert rows["support"] == "[2, 4, 6]"
    assert "schema" not in rows
