"""Command-line interface.

Exit codes: 0 affirmative result, 1 negative finding, 2 usage or input error,
3 resource ceiling exceeded, 141 (128 + SIGPIPE) standard output closed by
its reader; an unwritable `--csv` or `--svg` path is an input error (2).
`--json` swaps the human text for a JSON body that round-trips through the
library parsers.  Each command returns its exit code, its text line and a
builder for its JSON body; `dispatch` calls the builder only for `--json`,
so a text request builds no JSON.

`main` can be called repeatedly in one process: the argparse parser is
built once and reused, and each call parses into a fresh namespace.  A
request is parsed once, by its command's own parser; only an argv that
names no command, or that the command's parser leaves partly unread, goes
through the top-level parser, which prints the help or usage error.  Only a
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
from collections.abc import Callable
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


# A command's exit code, text line, and builder of its JSON body (run only for --json).
Outcome = tuple[int, str, Callable[[], dict]]


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


def cmd_admits(args) -> Outcome:
    s = InversionSet.parse(args.primes)
    cfg = SearchConfig.parse(args.mode)
    ok, witness = admits_4cycle(s, cfg, ceiling=args.ceiling)
    if ok:
        text = f"{s.ring_name()} admits a 4-cycle ({cfg.label}): {witness.pretty()}"
    else:
        text = f"{s.ring_name()}: no relation; avoids within bound {cfg.bound} ({cfg.label})"
    return 0 if ok else 1, text, lambda: {
        "inversion_set": list(s.primes),
        "mode": cfg.label,
        "admits": ok,
        "witness": witness.to_json_dict() if witness else None,
    }


def cmd_interpolate(args) -> Outcome:
    raw = args.points if args.points is not None else args.points_flag
    if raw is None:
        raise ValueError("four cycle points are required, e.g. 1,2,3,4")
    points = _parse_fractions(raw, expect=4)
    s = InversionSet.parse(args.ring)
    try:
        w = lagrange_cycle_poly(points, s)
    except RingMembershipError as e:
        # Built here: Python unbinds e when the except block ends.
        body = {"points": [str(x) for x in points], "inversion_set": list(s.primes)}
        body.update(in_ring=False, offending_value=str(e.value), bad_prime=e.bad_prime)
        return 1, f"interpolant leaves the ring: {e}", lambda: body
    return 0, str(w.poly), lambda: {**w.to_json_dict(), "polynomial": str(w.poly)}


def cmd_verify_cycle(args) -> Outcome:
    w = CycleWitness(
        InversionSet.parse(args.ring),
        _parse_fractions(args.points, expect=4),
        RationalPolynomial.parse(args.poly),
    )
    res = verify_cycle(w)

    def body() -> dict:
        d = {"ok": res.ok, "reason": res.reason, "witness": w.to_json_dict()}
        if res.ok:
            d["differences"] = [str(x) for x in relation_from_cycle(w.points)]
        return d

    if res.ok:
        return 0, f"cycle verified over {w.inversion_set.ring_name()}", body
    return 1, f"not a 4-cycle: {res.reason}", body


def cmd_orbit(args) -> Outcome:
    poly = RationalPolynomial.parse(args.poly)
    rep = orbit(poly, Fraction(args.start), args.max)
    if rep.outcome == "periodic":
        return 0, f"periodic: preperiod {rep.preperiod}, period {rep.period}", rep.to_json_dict
    if rep.outcome == "escaping":
        return 1, f"escaping orbit after {rep.iterations} iterations", rep.to_json_dict
    return 1, f"no cycle within {rep.iterations} iterations", rep.to_json_dict


def cmd_zieve(args) -> Outcome:
    s = InversionSet.parse(args.ring)
    hit = zieve_unit_search(s, args.bound, ceiling=args.ceiling)
    u, v = map(str, hit) if hit is not None else (None, None)
    if hit is not None:
        text = f"witness units: u = {u}, v = {v}"
    else:
        text = f"no witness within exponent bound {args.bound}"
    return 0 if hit is not None else 1, text, lambda: {
        "inversion_set": list(s.primes), "bound": args.bound, "u": u, "v": v
    }


def cmd_certify_avoid(args) -> Outcome:
    s = InversionSet.parse(args.primes)
    cfg = SearchConfig.parse(args.mode)
    res = separation_certificate(s, cfg, ceiling=args.ceiling)
    if isinstance(res, AvoidanceCertificate):
        text = (
            f"3-separation holds for {s.ring_name()} ({cfg.label}): "
            f"{len(res.products)} products, {len(res.checks)} steps"
        )
        return 0, text, res.to_json_dict
    return 1, f"3-separation fails: 3*{res.smaller} >= {res.larger}", lambda: {
        "inversion_set": list(s.primes),
        "mode": cfg.label,
        "counterexample": [str(res.smaller), str(res.larger)],
    }


def cmd_build_avoiding(args) -> Outcome:
    s = construct_avoiding_set(args.k, args.n, args.start)
    return 0, f"avoiding set (npower:{args.n}): {', '.join(map(str, s.primes))}", lambda: {
        "k": args.k, "n": args.n, "start": args.start, "primes": list(s.primes)
    }


def cmd_abc_pair(args) -> Outcome:
    rep = abc_pair(Fraction(args.C), args.m, args.seed)
    if rep.all_pass:
        text = f"p1 = {rep.p1}, p2 = {rep.p2}: all {len(rep.checks)} checks pass"
    else:
        text = "checks failed: " + ", ".join(c.name for c in rep.checks if not c.passed)
    return 0 if rep.all_pass else 1, text, rep.to_json_dict


def cmd_bb_check(args) -> Outcome:
    try:
        rel = Relation.from_json_dict(json.loads(args.relation))
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"malformed relation JSON: {e}") from e
    holds = check_bb_inequality(rel, Fraction(args.C), Fraction(args.eps))
    mx = max(abs(v) for v in rel.values)
    if holds:
        text = f"inequality holds: max |a_i| = {mx} is bounded"
    else:
        text = f"inequality fails: max |a_i| = {mx} exceeds the bound"
    return 0 if holds else 1, text, lambda: {
        "relation": rel.to_json_dict(),
        "C": str(Fraction(args.C)),
        "epsilon": str(Fraction(args.eps)),
        "holds": holds,
    }


def cmd_lenstra(args) -> Outcome:
    s = InversionSet.parse(args.ring)
    w = unit_difference_clique(s, args.k, args.bound, ceiling=args.ceiling)
    if w is not None:
        elems = ", ".join(str(x) for x in w.elements)
        text = f"clique of size {args.k} in {s.ring_name()}: {elems}"
        return 0, text, lambda: {**w.to_json_dict(), "k": args.k}
    return 1, f"no clique of size {args.k} within exponent bound {args.bound}", lambda: {
        "inversion_set": list(s.primes), "k": args.k, "elements": None
    }


def cmd_survey(args) -> Outcome:
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
    return 0, text, lambda: {
        "pool": args.pool,
        "size": args.size,
        "mode": mode.label,
        "rows": len(rows),
        "points": [list(p) for p in agg.points],
        "written": written,
    }


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
    # Each command's own parser by name, for dispatch's one parse per request.
    parser.commands = sub.choices

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


def _without_digit_limit(build: Callable[[], dict]) -> dict:
    """build(), with the int-to-str digit limit (from Python 3.10.7) lifted meanwhile,
    so that operands of any length are written in full."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return build()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return build()
    finally:
        sys.set_int_max_str_digits(limit)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full parser gives argv, from the command's parser alone.

    The top-level parser hands everything after the command name to that
    command's parser, so parsing argv[1:] there gives the same namespace.
    An argv that names no command, or that leaves arguments unrecognized,
    goes through the full parser, which prints the help or usage error.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def dispatch(argv: list[str]) -> CommandResult:
    """Parse and run; maps input errors to exit 2 and resource limits to exit 3.

    The JSON body is built, inside the same error mapping, only for --json,
    with no limit on the digits of its integers.
    """
    args = _parse(_normalize_argv(argv))
    try:
        code, text, body = args.func(args)
        return CommandResult(code, text, _without_digit_limit(body) if args.json else None)
    except SearchTooLarge as e:
        return CommandResult(3, f"search too large: {e}")
    except (ValueError, ZeroDivisionError, OSError) as e:
        return CommandResult(2, f"error: {e}")


def main(argv: list[str] | None = None) -> int:
    try:
        res = dispatch(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        # argparse already printed usage; normalize its exit code
        return 0 if e.code in (0, None) else 2
    except Exception as e:
        # A fault of the program, not a finding or an input error: one line
        # on stderr and an exit code of its own (KeyboardInterrupt is not an
        # Exception, so it still propagates).
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}", file=sys.stderr)
        return 4
    try:
        if res.exit_code not in (0, 1):
            print(res.text, file=sys.stderr)
        elif res.payload is not None:
            print(json.dumps(res.payload, indent=2))
        else:
            print(res.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`): exit 128 + SIGPIPE, with
        # the descriptor on the null device so the final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
