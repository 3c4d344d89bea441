"""Command-line interface.

Exit codes: 0 affirmative result, 1 negative finding, 2 usage or input error,
3 resource ceiling exceeded, 141 (128 + SIGPIPE) standard output closed by
its reader.  `--json` swaps the human text for a JSON body
that round-trips through the library parsers.

`main` can be called repeatedly in one process: the argparse parser is
built once and reused, and each call parses into a fresh namespace.  Only a
caller that makes many requests in one process saves time by this; the
console script makes one request per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .avoidance import (
    AvoidanceCertificate,
    abc_pair,
    construct_avoiding_set,
    separation_certificate,
)
from .backends import SearchTooLarge
from .cycles import (
    CycleWitness,
    RationalPolynomial,
    RingMembershipError,
    lagrange_cycle_poly,
    orbit,
    relation_from_cycle,
    verify_cycle,
    zieve_unit_search,
)
from .lenstra import unit_difference_clique
from .relsearch import Relation, SearchConfig, admits_4cycle, check_bb_inequality
from .sring import InversionSet
from .survey import DEFAULT_SAMPLE_SEED, emit_csv, emit_scatter_svg, survey_run


@dataclass
class CommandResult:
    exit_code: int
    text: str
    payload: dict | None = None
    as_json: bool = False


# Values like "-10,-5,-4,1" would be read as option strings by argparse.
_LEADING_MINUS = re.compile(r"^-(?:\d|\.\d)")
_NEGATIVE_OK_FLAGS = frozenset({"--points", "--poly", "--start", "--C", "--eps"})
_VALUE_FLAGS = _NEGATIVE_OK_FLAGS | frozenset(
    {
        "--ring", "--mode", "--max", "--bound", "--k", "--n", "--m", "--seed",
        "--pool", "--size", "--sample", "--csv", "--svg", "--ceiling", "--relation",
    }
)


def _normalize_argv(argv: list[str]) -> list[str]:
    """Reattach option values that begin with a minus sign."""
    out: list[str] = []
    sub = argv[0] if argv else None
    for i, tok in enumerate(argv):
        if out and out[-1] in _NEGATIVE_OK_FLAGS and _LEADING_MINUS.match(tok):
            out[-1] = f"{out[-1]}={tok}"
            continue
        if (
            sub == "interpolate"
            and i > 0
            and _LEADING_MINUS.match(tok)
            and argv[i - 1] not in _VALUE_FLAGS
        ):
            out.append(f"--points={tok}")
            continue
        out.append(tok)
    return out


def _parse_fractions(text: str, expect: int | None = None) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if expect is not None and len(parts) != expect:
        raise ValueError(f"expected {expect} comma-separated values, got {len(parts)}")
    return tuple(Fraction(p) for p in parts)


def _result(args, code: int, text: str, payload: dict | None) -> CommandResult:
    return CommandResult(code, text, payload, bool(getattr(args, "json", False)))


def cmd_admits(args) -> CommandResult:
    s = InversionSet.parse(args.primes)
    cfg = SearchConfig.parse(args.mode)
    ok, witness = admits_4cycle(s, cfg, ceiling=args.ceiling)
    payload = {
        "inversion_set": list(s.primes),
        "mode": cfg.label,
        "admits": ok,
        "witness": witness.to_json_dict() if witness else None,
    }
    if ok:
        return _result(
            args, 0, f"{s.ring_name()} admits a 4-cycle ({cfg.label}): {witness.pretty()}", payload
        )
    return _result(
        args, 1, f"{s.ring_name()}: no relation; avoids within bound {cfg.bound} ({cfg.label})", payload
    )


def cmd_interpolate(args) -> CommandResult:
    raw = args.points if args.points is not None else args.points_flag
    if raw is None:
        raise ValueError("four cycle points are required, e.g. 1,2,3,4")
    points = _parse_fractions(raw, expect=4)
    s = InversionSet.parse(args.ring)
    try:
        w = lagrange_cycle_poly(points, s)
    except RingMembershipError as e:
        payload = {
            "points": [str(x) for x in points],
            "inversion_set": list(s.primes),
            "in_ring": False,
            "offending_value": str(e.value),
            "bad_prime": e.bad_prime,
        }
        return _result(args, 1, f"interpolant leaves the ring: {e}", payload)
    payload = w.to_json_dict()
    payload["polynomial"] = str(w.poly)
    return _result(args, 0, str(w.poly), payload)


def cmd_verify_cycle(args) -> CommandResult:
    w = CycleWitness(
        InversionSet.parse(args.ring),
        _parse_fractions(args.points, expect=4),
        RationalPolynomial.parse(args.poly),
    )
    res = verify_cycle(w)
    payload = {"ok": res.ok, "reason": res.reason, "witness": w.to_json_dict()}
    if res.ok:
        diffs = relation_from_cycle(w.points)
        payload["differences"] = [str(d) for d in diffs]
        return _result(args, 0, f"cycle verified over {w.inversion_set.ring_name()}", payload)
    return _result(args, 1, f"not a 4-cycle: {res.reason}", payload)


def cmd_orbit(args) -> CommandResult:
    poly = RationalPolynomial.parse(args.poly)
    rep = orbit(poly, Fraction(args.start), args.max)
    payload = rep.to_json_dict()
    if rep.outcome == "periodic":
        return _result(
            args, 0, f"periodic: preperiod {rep.preperiod}, period {rep.period}", payload
        )
    if rep.outcome == "escaping":
        return _result(args, 1, f"escaping orbit after {rep.iterations} iterations", payload)
    return _result(args, 1, f"no cycle within {rep.iterations} iterations", payload)


def cmd_zieve(args) -> CommandResult:
    s = InversionSet.parse(args.ring)
    hit = zieve_unit_search(s, args.bound, ceiling=args.ceiling)
    if hit is not None:
        u, v = hit
        payload = {
            "inversion_set": list(s.primes),
            "bound": args.bound,
            "u": str(u),
            "v": str(v),
        }
        return _result(args, 0, f"witness units: u = {u}, v = {v}", payload)
    payload = {"inversion_set": list(s.primes), "bound": args.bound, "u": None, "v": None}
    return _result(args, 1, f"no witness within exponent bound {args.bound}", payload)


def cmd_certify_avoid(args) -> CommandResult:
    s = InversionSet.parse(args.primes)
    cfg = SearchConfig.parse(args.mode)
    res = separation_certificate(s, cfg, ceiling=args.ceiling)
    if isinstance(res, AvoidanceCertificate):
        payload = res.to_json_dict()
        return _result(
            args,
            0,
            f"3-separation holds for {s.ring_name()} ({cfg.label}): "
            f"{len(res.products)} products, {len(res.checks)} steps",
            payload,
        )
    payload = {
        "inversion_set": list(s.primes),
        "mode": cfg.label,
        "counterexample": [str(res.smaller), str(res.larger)],
    }
    return _result(
        args, 1, f"3-separation fails: 3*{res.smaller} >= {res.larger}", payload
    )


def cmd_build_avoiding(args) -> CommandResult:
    s = construct_avoiding_set(args.k, args.n, args.start)
    payload = {
        "k": args.k,
        "n": args.n,
        "start": args.start,
        "primes": list(s.primes),
    }
    return _result(
        args, 0, f"avoiding set (npower:{args.n}): {', '.join(map(str, s.primes))}", payload
    )


def cmd_abc_pair(args) -> CommandResult:
    rep = abc_pair(Fraction(args.C), args.m, args.seed)
    # Only --json output builds the JSON body.  From m = 16 an ordering-window
    # operand has more digits than str() of an int accepts by default.
    payload = rep.to_json_dict() if args.json else None
    failed = [c.name for c in rep.checks if not c.passed]
    if rep.all_pass:
        return _result(
            args,
            0,
            f"p1 = {rep.p1}, p2 = {rep.p2}: all {len(rep.checks)} checks pass",
            payload,
        )
    return _result(args, 1, f"checks failed: {', '.join(failed)}", payload)


def cmd_bb_check(args) -> CommandResult:
    try:
        rel = Relation.from_json_dict(json.loads(args.relation))
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"malformed relation JSON: {e}") from e
    holds = check_bb_inequality(rel, Fraction(args.C), Fraction(args.eps))
    payload = {
        "relation": rel.to_json_dict(),
        "C": str(Fraction(args.C)),
        "epsilon": str(Fraction(args.eps)),
        "holds": holds,
    }
    mx = max(abs(v) for v in rel.values)
    if holds:
        return _result(args, 0, f"inequality holds: max |a_i| = {mx} is bounded", payload)
    return _result(args, 1, f"inequality fails: max |a_i| = {mx} exceeds the bound", payload)


def cmd_lenstra(args) -> CommandResult:
    s = InversionSet.parse(args.ring)
    w = unit_difference_clique(s, args.k, args.bound, ceiling=args.ceiling)
    if w is not None:
        payload = w.to_json_dict()
        payload["k"] = args.k
        elems = ", ".join(str(x) for x in w.elements)
        return _result(args, 0, f"clique of size {args.k} in {s.ring_name()}: {elems}", payload)
    payload = {"inversion_set": list(s.primes), "k": args.k, "elements": None}
    return _result(
        args, 1, f"no clique of size {args.k} within exponent bound {args.bound}", payload
    )


def cmd_survey(args) -> CommandResult:
    mode = SearchConfig.parse(args.mode)
    rows, agg = survey_run(
        args.pool,
        args.size,
        mode,
        full=args.full,
        sample=args.sample,
        seed=args.seed,
        ceiling=args.ceiling,
    )
    written = []
    if args.csv:
        written.append(str(emit_csv(rows, args.csv)))
    if args.svg:
        written.append(str(emit_scatter_svg(agg, args.svg)))
    counts = [r.relation_count for r in rows]
    text = (
        f"{len(rows)} subsets of the first {args.pool} primes ({mode.label}); "
        f"relation counts {min(counts)}..{max(counts)}"
    )
    if written:
        text += "; wrote " + ", ".join(written)
    payload = {
        "pool": args.pool,
        "size": args.size,
        "mode": mode.label,
        "rows": len(rows),
        "points": [list(p) for p in agg.points],
        "written": written,
    }
    return _result(args, 0, text, payload)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--ceiling",
        type=int,
        default=None,
        help="search size ceiling: terms and pair sums, unit pairs or extensions "
        "(also via UNITCYCLE_CEILING)",
    )

    parser = argparse.ArgumentParser(
        prog="unitcycle",
        description="Search and certify polynomial 4-cycles over rings Z[1/p1,...,1/pn].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admits", parents=[common], help="search for a 4-term relation")
    p.add_argument("primes", help="comma-separated primes, e.g. 5,7")
    p.add_argument("--mode", default="linear", help="linear | npower:N | general:B")
    p.set_defaults(func=cmd_admits)

    p = sub.add_parser("interpolate", parents=[common], help="cubic through a 4-cycle")
    p.add_argument("points", nargs="?", default=None, help="x1,x2,x3,x4")
    p.add_argument("--points", dest="points_flag", default=None, help=argparse.SUPPRESS)
    p.add_argument("--ring", required=True, help="comma-separated primes ('' or Z for Z)")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify-cycle", parents=[common], help="re-check a cycle witness")
    p.add_argument("--poly", required=True, help="coefficients, lowest degree first")
    p.add_argument("--points", required=True, help="x1,x2,x3,x4")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_verify_cycle)

    p = sub.add_parser("orbit", parents=[common], help="iterate a polynomial exactly")
    p.add_argument("--poly", required=True, help="coefficients, lowest degree first")
    p.add_argument("--start", required=True, help="starting rational")
    p.add_argument("--max", type=int, default=1000, help="iteration budget")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("zieve", parents=[common], help="unit-criterion witness search")
    p.add_argument("--ring", required=True)
    p.add_argument("--bound", type=int, default=4, help="exponent bound")
    p.set_defaults(func=cmd_zieve)

    p = sub.add_parser("certify-avoid", parents=[common], help="3-separation certificate")
    p.add_argument("primes")
    p.add_argument("--mode", default="linear", help="linear | npower:N | general:B")
    p.set_defaults(func=cmd_certify_avoid)

    p = sub.add_parser("build-avoiding", parents=[common], help="construct an avoiding set")
    p.add_argument("--k", type=int, required=True, help="number of primes")
    p.add_argument("--n", type=int, required=True, help="exponent bound to avoid")
    p.add_argument("--start", type=int, default=3, help="lower bound for the first prime")
    p.set_defaults(func=cmd_build_avoiding)

    p = sub.add_parser("abc-pair", parents=[common], help="conditional prime-pair report")
    p.add_argument("--C", required=True, help="conjectural constant (rational)")
    p.add_argument("--m", type=int, required=True, help="exponent parameter, m >= 9")
    p.add_argument("--seed", type=int, default=0, help="lower bound floor for p1")
    p.set_defaults(func=cmd_abc_pair)

    p = sub.add_parser("bb-check", parents=[common], help="height inequality for a relation")
    p.add_argument("--relation", required=True, help="relation JSON (as emitted by admits --json)")
    p.add_argument("--C", required=True, help="constant (rational)")
    p.add_argument("--eps", required=True, help="exponent epsilon (rational)")
    p.set_defaults(func=cmd_bb_check)

    p = sub.add_parser("lenstra", parents=[common], help="unit-difference clique search")
    p.add_argument("--ring", required=True)
    p.add_argument("--k", type=int, required=True, help="clique size")
    p.add_argument("--bound", type=int, default=10, help="exponent bound")
    p.set_defaults(func=cmd_lenstra)

    p = sub.add_parser("survey", parents=[common], help="gap vs relation-count survey")
    p.add_argument("--pool", type=int, default=12, help="use the first N primes")
    p.add_argument("--size", type=int, default=5, help="subset size")
    p.add_argument("--mode", default="linear", help="linear | npower:N | general:B")
    p.add_argument("--full", action="store_true", help="force scans above the subset ceiling")
    p.add_argument("--sample", type=int, default=None, help="sample N random subsets instead")
    p.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED, help="sampling seed")
    p.add_argument("--csv", default=None, help="write rows to this CSV path")
    p.add_argument("--svg", default=None, help="write the scatter plot to this SVG path")
    p.set_defaults(func=cmd_survey)

    return parser


def dispatch(argv: list[str]) -> CommandResult:
    """Parse and run; maps input errors to exit 2 and resource limits to exit 3."""
    args = build_parser().parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except SearchTooLarge as e:
        return _result(args, 3, f"search too large: {e}", None)
    except (ValueError, ZeroDivisionError) as e:
        return _result(args, 2, f"error: {e}", None)


def main(argv: list[str] | None = None) -> int:
    try:
        res = dispatch(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        # argparse already printed usage; normalize its exit code
        return 0 if e.code in (0, None) else 2
    try:
        if res.exit_code in (0, 1):
            if res.as_json and res.payload is not None:
                print(json.dumps(res.payload, indent=2))
            else:
                print(res.text)
        else:
            print(res.text, file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`): exit 128 + SIGPIPE, with
        # the descriptor on the null device so the final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
