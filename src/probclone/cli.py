"""Command-line front end: states | feasibility | optimize | simulate.

All commands are deterministic for a fixed (command, flags, seed) and the
JSON output is byte-identical across runs. JSON is the canonical format;
csv and table renderings are derived from the same payload. Rational
inputs are accepted as "p/q" strings so exact boundary points survive
the trip through the command line.

Exit codes: 0 on success, 2 on usage, malformed input or an unwritable
``--out`` path, 1 when an internal invariant trips (the numeric
optimizer exceeding the analytic bound by more than ``REGRESSION_MARGIN``).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from . import feasibility as fz
from . import gamesim, optimize
from ._exact import parse_rational
from .funcspace import CASES, family
from .phasestate import case_gram, gram, phase_state

#: how far ``optimize --mode both`` lets the numeric value exceed the
#: analytic bound before it reports a regression. The search's fixed PSD
#: margin, half of ``feasibility.DEFAULT_TOL``, lets it sit up to 1.71e-9
#: past the exact boundary (measured at resolutions 8-13, iterations 0-80).
REGRESSION_MARGIN = 1e-6


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--case", choices=CASES, default="3bit",
                        help="problem size (default: 3bit)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="json",
                        help="output format (default: json)")
    parser.add_argument("--out", default=None, help="write output to this path")


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its ``{command: subparser}`` map, built once per
    process (about the cost of a one-point verdict) and unchanged by parsing."""
    parser = argparse.ArgumentParser(
        prog="probclone",
        description="Oracle phase states, cloning feasibility, and task scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_states = sub.add_parser("states", help="candidate states and Gram matrices")
    _add_common(p_states)
    p_states.add_argument("--basis", choices=("candidates", "sf", "all"), default="all",
                          help="which Gram matrices to include (default: all)")

    p_feas = sub.add_parser("feasibility", help="feasibility matrix and PSD verdict")
    _add_common(p_feas)
    p_feas.add_argument("--gammas", default=None,
                        help="three efficiencies, e.g. 7/127,112/127,112/127")
    p_feas.add_argument("--p12", default=None, help="flag overlap P12 as re[,im]")
    p_feas.add_argument("--p13", default=None, help="flag overlap P13 as re[,im]")
    p_feas.add_argument("--p23", default=None,
                        help="flag overlap P23 as re[,im], echoed only: P23 multiplies "
                             "G_23 = 0 in both cases, so it cannot change M")
    p_feas.add_argument("--curve", choices=("vw",), default=None,
                        help="emit boundary curve points instead of a verdict")
    p_feas.add_argument("--points", type=int, default=None,
                        help="points per curve branch (default: 64)")

    p_opt = sub.add_parser("optimize", help="optimal efficiencies")
    _add_common(p_opt)
    p_opt.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: the search is deterministic")
    p_opt.add_argument("--objective", choices=("gamma23", "gamma1", "equal"),
                       default="gamma23")
    p_opt.add_argument("--mode", choices=("analytic", "numeric", "both"),
                       default="both")
    p_opt.add_argument("--resolution", type=int, default=9,
                       help="grid points per axis for the numeric search, "
                            f"8 to {optimize.MAX_RESOLUTION} (default: 9)")
    p_opt.add_argument("--iterations", type=int, default=40,
                       help="pattern-search shrink count")

    p_sim = sub.add_parser("simulate", help="Monte Carlo the guessing task")
    _add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0,
                       help="Monte Carlo seed (default: 0)")
    p_sim.add_argument("--trials", type=int, default=100_000,
                       help=f"Monte Carlo trials, 1 to {gamesim.MAX_TRIALS} "
                            "(default: 100000)")
    p_sim.add_argument("--strategy", choices=("noclone", "clone"), required=True)
    p_sim.add_argument("--gammas", default=None,
                       help="efficiencies for the clone strategy (p/q,p/q,p/q)")

    return parser, sub.choices


#: options whose value may start with "-" ("-1/2", "-0.5,0.25")
_SIGNED_OPTIONS = frozenset({"--p12", "--p13", "--p23"})
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--p12 -1/2`` as ``--p12=-1/2``.

    argparse reads a separate token that starts with "-" as an option
    unless it is a plain negative number, so a negative rational or a
    re,im pair would otherwise be a usage error.
    """
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _parse_gammas(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"need three efficiencies, got {text!r}")
    return fz.EfficiencyVector(tuple(parse_rational(p) for p in parts))


def _parse_flag(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        return (parse_rational(parts[0]), Fraction(0))
    if len(parts) == 2:
        return (parse_rational(parts[0]), parse_rational(parts[1]))
    raise ValueError(f"flag overlap must be re or re,im, got {text!r}")


# ---------------------------------------------------------------------------
# commands (each returns (payload, exit_code))
# ---------------------------------------------------------------------------

def cmd_states(args) -> tuple[dict, int]:
    fam = family(args.case)
    payload: dict = {"case": args.case}
    if args.basis in ("candidates", "all"):
        states = [phase_state(f) for f in fam.s_f0]
        payload["candidates"] = [
            {"name": f.name, "signs": st.sign_string(),
             "amps": [[a.real, a.imag] for a in st.amps]}
            for f, st in zip(fam.s_f0, states)]
        payload["candidate_gram"] = case_gram(args.case).to_lists()
    if args.basis in ("sf", "all"):
        basis = [phase_state(f) for f in fam.s2]
        g = gram(basis)
        payload["basis"] = [f.name for f in fam.s2]
        payload["basis_gram"] = g.to_lists()
        payload["basis_is_orthonormal"] = g.is_identity()
    return payload, 0


def cmd_feasibility(args) -> tuple[dict, int]:
    # the point options default to None, so that an empty value is rejected too
    flag_texts = (args.p12, args.p13, args.p23)
    if args.curve:
        if any(x is not None for x in (args.gammas, *flag_texts)):
            raise ValueError("--gammas, --p12, --p13 and --p23 apply to a single point, "
                             "not to --curve")
        return _curve_payload(args), 0
    if args.points is not None:
        raise ValueError("--points applies to --curve only")
    if args.gammas is None:
        raise ValueError("--gammas is required (or use --curve)")
    eff = _parse_gammas(args.gammas)
    flags = fz.FlagOverlaps(*(_parse_flag("0" if f is None else f) for f in flag_texts))
    point = fz.build_matrix(args.case, eff, flags)
    payload = {"case": args.case}
    payload.update(point.to_json())
    payload["reduced"] = fz.ReducedCoordinates.from_inputs(flags, eff, args.case).to_json()
    return payload, 0


def _curve_payload(args) -> dict:
    n = 64 if args.points is None else args.points
    if n < 2:
        raise ValueError("--points must be at least 2")
    if n > 100_000:     # already seconds of work and 28 MB of JSON
        raise ValueError("--points must be at most 100000")
    rows = []
    q_lo, _, v_hi = (float(x) for x in fz.corner(args.case))
    for i in range(n):
        # v_hi * (n-1) / (n-1) can round one ulp past vw_boundary's exact range
        v = min(v_hi, v_hi * i / (n - 1))
        pv, pw = fz.vw_boundary(args.case, "max_s", v)
        rows.append({"branch": "max_s", "parameter": v, "v": float(pv), "w": float(pw)})
    for i in range(n):
        qv = q_lo * (1 - i / (n - 1))
        pv, pw = fz.vw_boundary(args.case, "min_s", qv)
        rows.append({"branch": "min_s", "parameter": qv, "v": float(pv), "w": float(pw)})
    return {"case": args.case, "curve": "vw", "points": rows}


def cmd_optimize(args) -> tuple[dict, int]:
    # checked for every mode and objective, so the exit code never depends
    # on whether the numeric search runs
    if args.resolution < 8:
        raise ValueError("--resolution must be at least 8")
    if args.resolution > optimize.MAX_RESOLUTION:
        raise ValueError(f"--resolution must be at most {optimize.MAX_RESOLUTION}")
    if args.iterations < 0:
        raise ValueError("--iterations must be non-negative")
    if args.objective == "equal" and args.mode == "numeric":
        raise ValueError("--objective equal has no numeric search; "
                         "use --mode analytic or both")
    payload: dict = {"case": args.case, "objective": args.objective,
                     "mode": args.mode, "tol": fz.DEFAULT_TOL}
    analytic = None if args.mode == "numeric" else (
        optimize.equal_gamma_optimum(args.case) if args.objective == "equal"
        else optimize.analytic_optimum(args.case, args.objective))
    numeric = None if args.mode == "analytic" or args.objective == "equal" else (
        optimize.numeric_search(args.case, args.objective, resolution=args.resolution,
                                iterations=args.iterations))
    payload["reports"] = [r.to_json() for r in (analytic, numeric) if r is not None]
    if analytic is not None and numeric is not None:
        payload["regression"] = numeric.value > analytic.value + REGRESSION_MARGIN
    return payload, 1 if payload.get("regression") else 0


def cmd_simulate(args) -> tuple[dict, int]:
    if not 1 <= args.trials <= gamesim.MAX_TRIALS:
        raise ValueError(f"--trials must be 1 to {gamesim.MAX_TRIALS}")
    if args.strategy == "noclone":
        if args.gammas is not None:
            raise ValueError("--gammas applies to the clone strategy only")
        report = gamesim.simulate_no_clone(args.case, trials=args.trials,
                                           seed=args.seed)
    else:
        if args.gammas is None:
            raise ValueError("--gammas is required for the clone strategy")
        eff = _parse_gammas(args.gammas)
        report = gamesim.simulate_clone(eff, args.case, trials=args.trials,
                                        seed=args.seed)
    return report.to_json(), 0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        if obj and all(not isinstance(x, (dict, list)) for x in obj):
            rows.append((prefix, ";".join(_scalar(x) for x in obj)))
        else:
            for i, v in enumerate(obj):
                _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _scalar(obj)))


def _scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json(obj, pad: str, out: list) -> None:
    """Append ``json.dumps(obj, indent=2)`` to ``out`` in pieces, each line
    after the first starting with ``pad``; a key that is not a str raises
    TypeError. With an indent json encodes in pure Python; here its C
    encoder writes only non-finite floats and unknown types.

    Dispatch is on the exact type: a ``dict``, ``list`` or ``tuple`` is
    written by a loop that writes its finite ``float`` and ``str`` members
    itself (``float.__repr__`` and json's C ``encode_basestring_ascii``)
    and recurses for the rest. Every other value takes the ``isinstance``
    chain that json's own encoder takes: str, None, bool, int (an IntEnum
    as its int), finite float, dict, list or tuple, subclasses included;
    non-finite floats and unknown types go to ``json.dumps`` without an
    indent, which writes NaN or Infinity or raises TypeError.
    """
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(obj, float) and math.isfinite(obj):
            out.append(float.__repr__(obj))
            return
        if isinstance(obj, str):
            out.append(_string(obj))
            return
        if obj is None or isinstance(obj, bool):
            out.append("null" if obj is None else "true" if obj else "false")
            return
        if isinstance(obj, int):
            out.append(int.__repr__(obj))
            return
        if not isinstance(obj, (dict, list, tuple)):
            out.append(json.dumps(obj))
            return
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = pad + "  "
    comma = "," + inner
    if is_dict:
        sep = "{" + inner
        for k, v in obj.items():
            key = sep + _string(k) + ": "
            kind = type(v)
            if kind is float and v - v == 0.0:      # finite: inf - inf and nan are nan
                out.append(key + float.__repr__(v))
            elif kind is str:
                out.append(key + _string(v))
            else:
                out.append(key)
                _json(v, inner, out)
            sep = comma
        out.append(pad + "}")
    else:
        sep = "[" + inner
        for v in obj:
            kind = type(v)
            if kind is float and v - v == 0.0:
                out.append(sep + float.__repr__(v))
            elif kind is str:
                out.append(sep + _string(v))
            else:
                out.append(sep)
                _json(v, inner, out)
            sep = comma
        out.append(pad + "]")


def render(payload: dict, fmt: str) -> str:
    """The payload as text: JSON is byte-identical to ``json.dumps(payload,
    indent=2)`` and a newline; csv and table list its flattened keys."""
    if fmt == "json":
        out: list = []
        _json(payload, "\n", out)
        out.append("\n")
        return "".join(out)
    rows: list = []
    _flatten("", payload, rows)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            v = '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v
            lines.append(f"{k},{v}")
        return "\n".join(lines) + "\n"
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


# ---------------------------------------------------------------------------

_COMMANDS = {
    "states": cmd_states,
    "feasibility": cmd_feasibility,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:               # no command: the top-level help, usage or error
        args = parser.parse_args(argv)
    try:
        payload, code = _COMMANDS[args.command](args)
    except ValueError as exc:
        text = str(exc)
        # the interpreter's digit-limit error names no input (P23 is echoed only)
        if text.startswith("Exceeds the limit"):
            given = ", ".join(f"--{name}" for name in ("gammas", "p12", "p13")
                              if getattr(args, name, None) is not None)
            text = (f"an exact value computed from {given} has more than "
                    f"{sys.get_int_max_str_digits()} digits, the int-string conversion limit")
        print(f"error: {text}", file=sys.stderr)
        return 2
    text = render(payload, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
