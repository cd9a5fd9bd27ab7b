"""Command line front end.

Every subcommand prints a single JSON document (sorted keys, stable layout)
so runs are byte-reproducible; a TSV rendering is available where tabular
output makes sense. Bad usage exits with 2, domain errors with 3 and a
machine-readable error object, verification mismatches with 1.

Each subcommand imports the modules it needs when it runs, so a process
loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import CohomrepsError, InvariantViolation
from .partitions import parse_partition
from .reps import (
    Family,
    Memo,
    block_tags,
    count_reps,
    hodge_type,
    iter_reps,
    make_rep,
    poincare_closed,
    poincare_oracle,
    text_form,
    trivial_rep,
)


class _VerifySubjects:
    """The choices of `verify`, read from checks.CHECKS when argparse looks."""

    def __iter__(self):
        from . import checks

        return iter([*checks.CHECKS, "all"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomreps",
        description="exact combinatorics of cohomological representations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("family", choices=["U", "O", "Sp"])
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)

    def add_rep_args(p):
        p.add_argument("--lambda", dest="lam", default=None,
                       help="first partition, e.g. [2,1]")
        p.add_argument("--mu", default=None, help="second partition")
        p.add_argument("--flag", type=int, choices=[0, 1], default=None)

    def add_format(p):
        p.add_argument("--format", choices=["json", "tsv"], default="json")

    p_enum = sub.add_parser("enumerate", help="list all representations")
    add_family(p_enum)
    add_format(p_enum)

    p_coh = sub.add_parser("cohomology", help="Poincare series of one representation")
    add_family(p_coh)
    add_rep_args(p_coh)
    p_coh.add_argument("--closed-only", action="store_true",
                       help="skip the independent exterior-power evaluation")
    add_format(p_coh)

    p_iso = sub.add_parser("isolate", help="isolation verdicts for one representation")
    add_family(p_iso)
    add_rep_args(p_iso)
    add_format(p_iso)

    p_deg = sub.add_parser("degrees", help="possible degrees around the middle dimension")
    p_deg.add_argument("n", type=int)
    p_deg.add_argument("p", type=int)
    p_deg.add_argument("q", type=int)
    add_format(p_deg)

    p_cov = sub.add_parser("coverage", help="which general theorems cover a representation")
    add_family(p_cov)
    add_rep_args(p_cov)
    add_format(p_cov)

    p_res = sub.add_parser("restrict", help="predict a GL(n) to GL(m) restriction")
    p_res.add_argument("rep", help='block syntax, e.g. "u(1,3)+u(2,2)[1/3]"')
    p_res.add_argument("m", type=int)
    p_res.add_argument("--clip-mode", choices=["outer", "top"], default="outer")
    add_format(p_res)

    p_ver = sub.add_parser("verify", help="cross-check independent implementations")
    # Set after add_argument, which formats the choices of a new argument
    # and so would import checks whatever the subcommand.
    p_ver.add_argument("subject").choices = _VerifySubjects()
    p_ver.add_argument("--max-n", type=int, default=None,
                       help="bound on n for lemC (default: its own scale)")
    p_ver.add_argument("--max-pq", type=int, default=None,
                       help="bound on p+q or a+b for the other checks (default: each its own)")

    return parser


def _rep_from_args(args):
    fam = Family(args.family, args.p, args.q)
    if args.lam is None and args.mu is None:
        if args.flag is None:
            return trivial_rep(fam)
        return make_rep(fam, (), (fam.q,) * fam.p, args.flag)
    lam = parse_partition(args.lam) if args.lam is not None else ()
    mu = parse_partition(args.mu) if args.mu is not None else None
    return make_rep(fam, lam, mu, args.flag)


def _rep_inputs(args, rep):
    return {
        "family": args.family,
        "p": args.p,
        "q": args.q,
        "lambda": list(rep.lam),
        "mu": list(rep.mu),
        "flag": rep.flag,
    }


def _verdict_json(v):
    return {
        "isolated": v.isolated,
        "criterion": v.criterion,
        "witnesses": list(v.witnesses),
    }


def _payload(command, inputs, body):
    doc = {"schema": 1, "version": __version__, "input": {"command": command, **inputs}}
    doc.update(body)
    return doc


def _emit(payload, fmt) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for key in sorted(payload):
        if key in ("schema", "version", "input"):
            continue
        print(f"{key}\t{json.dumps(payload[key], sort_keys=True)}")


def _cmd_enumerate(args) -> int:
    """Write the document of every rep of the group, its rows streamed.

    The count comes first and is computed without building any rep, so the
    reps come from one uncached generator and only one chunk of rows is
    held at a time; an oversized group is refused before any output.
    """
    fam = Family(args.family, args.p, args.q)
    reps = iter_reps(fam)
    count = count_reps(fam)
    if args.format == "json":
        head, tail = _enumerate_frame(args, count)
        _write_rows(head, _json_rows(reps), ",\n", tail, count)
    else:
        _write_rows("text\tlambda\tmu\tflag\tR\n", _tsv_rows(reps), "\n", "\n", count)
    return 0


# Rows per write of a streamed enumerate. A chunk, joined and then encoded,
# is most of the peak memory of a long stream, so it stays small.
_CHUNK = 512


def _write_rows(head: str, rows, sep: str, tail: str, count: int) -> None:
    """Write head, the rows joined by sep, then tail, _CHUNK rows at a
    time; InvariantViolation is raised before the tail when the number of
    rows is not count."""
    out = sys.stdout  # looked up now, so that a redirected stdout gets the rows
    out.write(head)
    written = 0
    while chunk := list(islice(rows, _CHUNK)):
        if written:
            out.write(sep)
        out.write(sep.join(chunk))
        written += len(chunk)
    if written != count:
        raise InvariantViolation(f"enumerate wrote {written} rows for a count of {count}")
    out.write(tail)


def _tsv_rows(reps):
    for rep in reps:
        flag = "-" if rep.flag is None else rep.flag
        yield f"{text_form(rep)}\t{list(rep.lam)}\t{list(rep.mu)}\t{flag}\t{rep.R}"


def _json_list(xs, pad: str) -> str:
    """A tuple of ints or of such tuples as json.dumps(indent=2) lays it out
    at indent `pad`."""
    if not xs:
        return "[]"
    inner = pad + "  "
    items = [inner + (_json_list(x, inner) if type(x) is not int else str(x)) for x in xs]
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _enumerate_frame(args, count: int):
    """The text of json.dumps(payload, sort_keys=True, indent=2) for the
    enumerate payload before its first row and after its last.

    With an indent, json falls back to its pure-Python encoder, which is
    most of the time of a large enumerate. Only this frame goes through
    json; _json_rows writes each row in the fixed layout json gives it.
    """
    inputs = {"family": args.family, "p": args.p, "q": args.q}
    payload = _payload("enumerate", inputs, {"count": count, "reps": []})
    head, tail = json.dumps(payload, sort_keys=True, indent=2).split('"reps": []')
    return f'{head}"reps": [\n', f"\n  ]{tail}\n"


def _json_rows(reps):
    """Each rep as its row of the enumerate document, from list and
    partition strings formatted once per distinct value, but per row for
    the lam and mu of O, which never repeat in a group."""
    # _json_list at the indent of a row's fields, once per distinct tuple
    lists = Memo(partial(_json_list, pad="      "))
    for rep in reps:
        name = lists.form if rep.orth else lists.__getitem__
        yield (
            "    {\n"
            f'      "R": {rep.R},\n'
            f'      "flag": {"null" if rep.flag is None else rep.flag},\n'
            f'      "lambda": {name(rep.lam)},\n'
            f'      "mu": {name(rep.mu)},\n'
            f'      "rectangles": {lists[rep.skew.rectangles]},\n'
            f'      "text": {encode_basestring_ascii(text_form(rep))}\n'
            "    }"
        )


def _cmd_cohomology(args) -> int:
    rep = _rep_from_args(args)
    closed = poincare_closed(rep)
    oracle = None if args.closed_only else poincare_oracle(rep)
    poly = closed if oracle is None else oracle
    body = {
        "rep": text_form(rep),
        "R": rep.R,
        "hodge": list(hodge_type(rep)) if rep.family.kind == "U" else None,
        "levi_blocks": [list(t) for t in block_tags(rep)],
        "poincare_closed": list(closed.coeffs),
        "poincare_oracle": None if oracle is None else list(oracle.coeffs),
        "cohomology": [[deg, c] for deg, c in enumerate(poly.coeffs) if c],
    }
    payload = _payload("cohomology", _rep_inputs(args, rep), body)
    _emit(payload, args.format)
    return 0


def _cmd_isolate(args) -> int:
    from .isolation import verdicts

    rep = _rep_from_args(args)
    dual, explicit, degree_zero = verdicts(rep)
    body = {
        "rep": text_form(rep),
        "unitary_dual": _verdict_json(dual),
        "explicit": None if explicit is None else _verdict_json(explicit),
        "degree_zero": _verdict_json(degree_zero),
    }
    payload = _payload("isolate", _rep_inputs(args, rep), body)
    _emit(payload, args.format)
    return 0


def _cmd_degrees(args) -> int:
    from .autdegrees import CONDITIONAL_NOTE, degree_support

    ds = degree_support(args.n, args.p, args.q)
    divisors = [
        {"b": b, "N": width, "interval": [ds.center - width, ds.center + width]}
        for b, width in ds.bands
    ]
    body = {
        "center": ds.center,
        "parity": ds.parity,
        "parity_uniform": ds.is_parity_uniform,
        "divisors": divisors,
        "support": list(ds.degrees),
        "conditional_on": CONDITIONAL_NOTE,
    }
    payload = _payload("degrees", {"n": args.n, "p": args.p, "q": args.q}, body)
    _emit(payload, args.format)
    return 0


def _cmd_coverage(args) -> int:
    from .autdegrees import li_coverage, relth_coverage

    rep = _rep_from_args(args)
    li = li_coverage(rep)
    rel = relth_coverage(rep)
    body = {
        "rep": text_form(rep),
        "li": {"tag": li.tag, "source": li.source},
        "relth": {"tag": rel.tag, "source": rel.source},
        "conditional_on": None,
    }
    payload = _payload("coverage", _rep_inputs(args, rep), body)
    _emit(payload, args.format)
    return 0


def _cmd_restrict(args) -> int:
    from .glrestrict import parse_glrep, prediction_modes_disagree, restrict_prediction, t_matrix

    glrep = parse_glrep(args.rep)
    T = t_matrix(glrep)
    pred = restrict_prediction(T, args.m, args.clip_mode)
    body = {
        "n": glrep.n,
        "T": [str(x) for x in T],
        "clip_mode": args.clip_mode,
        "prediction": [str(x) for x in pred],
        "modes_disagree": prediction_modes_disagree(T, args.m),
    }
    payload = _payload("restrict", {"rep": args.rep, "m": args.m}, body)
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    from . import checks

    # a single check refuses the scale option it would ignore; all reads both
    reads, unread = ("--max-n", args.max_pq) if args.subject == "lemC" else ("--max-pq", args.max_n)
    if args.subject != "all" and unread is not None:
        print(f"cohomreps verify: error: {args.subject} reads {reads} only", file=sys.stderr)
        return 2
    names = list(checks.CHECKS) if args.subject == "all" else [args.subject]
    results = [checks.run(name, args.max_n if name == "lemC" else args.max_pq) for name in names]
    # a check that ran no cases checked nothing, so it does not pass
    ok = all(result["cases"] and not result["mismatches"] for result in results)
    _emit(_payload("verify", vars(args), {"checks": results, "ok": ok}), "json")
    return 0 if ok else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "cohomology": _cmd_cohomology,
    "isolate": _cmd_isolate,
    "degrees": _cmd_degrees,
    "coverage": _cmd_coverage,
    "restrict": _cmd_restrict,
    "verify": _cmd_verify,
}


def _dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (CohomrepsError, ValueError) as exc:
        error = {
            "schema": 1,
            "version": __version__,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(error, sort_keys=True, indent=2))
        return 3


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (as in `cohomreps enumerate U 5 5 | head`).
        # Python flushes stdout again at exit; send that flush to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
