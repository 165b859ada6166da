import argparse
import collections
import dataclasses
import enum
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probclone
from probclone import cli, feasibility, gamesim, optimize
from probclone._exact import parse_rational
from probclone.phasestate import case_gram
from probclone.cli import main, render


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_states_three_bit_gram(capsys):
    data = run_json(capsys, "states", "--case", "3bit")
    g = data["candidate_gram"]
    assert g[0][1] == -0.25 and g[0][2] == 0.25 and g[1][2] == 0.0
    assert data["basis_is_orthonormal"] is True


def test_states_two_bit_gram(capsys):
    data = run_json(capsys, "states", "--case", "2bit")
    g = data["candidate_gram"]
    assert g[0][1] == -0.5 and g[0][2] == -0.5 and g[1][2] == 0.0


@pytest.mark.parametrize("case", ["3bit", "2bit"])
def test_gram_payloads_stay_private(case):
    # the case Gram's float rows are computed once; every payload gets
    # fresh lists, so mutating one changes no later payload
    want = [[float(e) for e in row] for row in case_gram(case).entries]
    point = feasibility.build_matrix(case, feasibility.EfficiencyVector((0, 0, 0)),
                                     feasibility.FlagOverlaps())

    def states():
        return cli.cmd_states(argparse.Namespace(case=case, basis="candidates"))[0]
    for gram in (case_gram(case).to_lists(), point.to_json()["gram"],
                 states()["candidate_gram"]):
        assert gram == want
        gram[0][0] = 2.0
        gram[1].append(3.0)
        gram.pop()
        assert point.to_json()["gram"] == want
        assert states()["candidate_gram"] == want
        assert case_gram(case).to_lists() == want


def test_python_dash_m_runs_the_cli(capsys):
    # the package this suite imports, not whatever else is installed
    src = str(Path(probclone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "probclone", "states", "--case", "2bit"],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = run_cli(capsys, "states", "--case", "2bit")
    assert proc.returncode == code == 0
    assert proc.stdout == out != ""


def test_importing_builds_nothing():
    # every derived case constant waits for its first use, so a fresh
    # ``import probclone.cli`` leaves the family, case-Gram, slice-constant
    # and corner caches empty
    src = str(Path(probclone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import probclone.cli\n"
            "from probclone import feasibility, funcspace, phasestate\n"
            "print(*(f.cache_info().currsize for f in (funcspace.family,"
            " phasestate.case_gram, feasibility.case_params, feasibility.corner)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0"]


def test_states_sf_basis_identity(capsys):
    for case, dim in (("3bit", 8), ("2bit", 4)):
        data = run_json(capsys, "states", "--case", case, "--basis", "sf")
        g = data["basis_gram"]
        assert len(g) == dim
        for i in range(dim):
            for j in range(dim):
                assert g[i][j] == (1.0 if i == j else 0.0)
        assert "candidates" not in data


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasibility_optimum_boundary(capsys):
    data = run_json(capsys, "feasibility", "--case", "3bit",
                    "--gammas", "7/127,112/127,112/127",
                    "--p12", "-1", "--p13", "1")
    assert data["psd"] is True
    assert data["det_exact"] == "0"
    assert data["reduced"]["q"] == -0.0625
    assert data["reduced"]["s"] == 0.9921875
    assert data["reduced"]["v"] == pytest.approx(28 / 127)


def test_feasibility_infeasible_point(capsys):
    data = run_json(capsys, "feasibility", "--case", "3bit",
                    "--gammas", "0.9,0.9,0.9")
    assert data["psd"] is False


def test_feasibility_zero_gammas(capsys):
    data = run_json(capsys, "feasibility", "--case", "3bit", "--gammas", "0,0,0")
    assert data["psd"] is True


def test_feasibility_malformed_rational(capsys):
    # an empty piece of a list (middle, trailing or a lone comma) is malformed
    # too, never skipped
    for extra in (["--gammas", "1/x,0,0"], ["--gammas", "1/2,,1/4,1/4"],
                  ["--gammas", "1/2,,1/4"], ["--gammas", "1/2,1/4,1/4,"],
                  ["--gammas", ","], ["--gammas", "1/2,1/4,1/4", "--p12", "1/2,"],
                  ["--gammas", "1/2,1/4,1/4", "--p13", ","],
                  ["--gammas", "1/2,1/4,1/4", "--p23", ",1/2"]):
        code, out, err = run_cli(capsys, "feasibility", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_feasibility_requires_gammas(capsys):
    code, _, err = run_cli(capsys, "feasibility")
    assert code == 2


@pytest.mark.parametrize("option, value", [
    ("--p12", "-1/2"), ("--p12", "-1/2,1/3"), ("--p13", "-1/2"),
    ("--p13", "-0.5,0.25"), ("--p23", "-1/3"), ("--p23", "-.5,-1/4"),
])
def test_negative_flag_values_without_equals(capsys, option, value):
    base = ("feasibility", "--case", "2bit", "--gammas", "1/4,1/9,1/16")
    code, spaced, err = run_cli(capsys, *base, option, value)
    assert code == 0, err
    _, joined, _ = run_cli(capsys, *base, f"{option}={value}")
    assert spaced == joined
    pair = [float(Fraction(x)) for x in value.split(",")] + [0.0]
    assert json.loads(spaced)[option[2:].upper()] == pair[:2]


@pytest.mark.parametrize("point, exact", [
    (("--gammas", "7/127,112/127,112/127", "--p12=-1", "--p13=1"), True),
    (("--gammas", "0.3,0.5,0.5", "--p12=-0.5,0.25", "--p13=0.5"), False),
])
def test_p23_is_echoed_only(capsys, point, exact):
    # P23 multiplies G_23 = 0, so only its echo may differ, on either route
    outs = set()
    for p23 in ((), ("--p23=1/2,1/2",), ("--p23=-1",)):
        code, out, err = run_cli(capsys, "feasibility", "--case", "3bit", *point, *p23)
        assert code == 0, err
        data = json.loads(out)
        assert data["exact"] is exact
        outs.add(json.dumps({k: v for k, v in data.items() if k != "P23"}))
    assert len(outs) == 1


def test_feasibility_curve(capsys):
    data = run_json(capsys, "feasibility", "--case", "2bit", "--curve", "vw",
                    "--points", "5")
    assert data["curve"] == "vw"
    branches = {p["branch"] for p in data["points"]}
    assert branches == {"max_s", "min_s"}
    first = data["points"][0]
    assert first["v"] == 0.0 and first["w"] == 0.5


@pytest.mark.parametrize("points", (12, 23, 40))
def test_curve_ends_exactly_at_the_corner(capsys, points):
    # for these counts v_hi * (n-1) / (n-1) rounds one ulp above the 3-bit
    # corner's float, which vw_boundary rejected as out of range
    def curve(*extra):
        return run_json(capsys, "feasibility", "--case", "3bit", "--curve", "vw",
                        *extra)["points"]

    rows = curve("--points", str(points))      # max_s rows, then min_s rows
    assert len(rows) == 2 * points
    assert [rows[points - 1]["branch"], rows[points]["branch"]] == ["max_s", "min_s"]
    assert rows[points - 1] == curve()[63]       # the last max_s row at 64 points


@pytest.mark.parametrize("extra, message", [
    (("--curve", "vw", "--points", "2", "--gammas", "1/2,1/2,1/2", "--p12", "1"), "--curve"),
    (("--curve", "vw", "--gammas", "0,0,0"), "--curve"),
    (("--curve", "vw", "--p12", "1/2"), "--curve"),
    (("--curve", "vw", "--p13=-1"), "--curve"),
    (("--curve", "vw", "--p23", "0"), "--curve"),
    (("--curve", "vw", "--p12", ""), "--curve"),
    (("--gammas", "1/2,1/4,1/4", "--points", "7"), "--points applies to --curve only"),
    (("--gammas", "0,0,0", "--p12", ""), "error: "),
])
def test_feasibility_rejects_options_it_would_not_use(capsys, extra, message):
    # a curve reads no point, and a point reads no --points: an explicit
    # value, even a default or an empty one, exits 2 rather than being ignored
    code, out, err = run_cli(capsys, "feasibility", "--case", "2bit", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_parse_rational_bounds_the_exponent():
    # 10**exponent is never built past the int-string digit limit, so the
    # exact arithmetic behind a huge exponent cannot run without bound
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
    assert parse_rational(f" 25E-00{limit} ") == Fraction(25, 10 ** limit)
    assert parse_rational("1_5e1_0") == 15 * 10 ** 10
    for text in (f"1e-{limit + 1}", f"1E+{limit + 1}", "1e-1000000",
                 "2.5e" + "9" * 5000, f"1e{limit}_0"):
        with pytest.raises(ValueError, match="exponent of") as exc:
            parse_rational(text)
        assert repr(text) in str(exc.value)


def test_huge_exponent_exits_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "feasibility", "--gammas", "1e-1000000,0,0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'1e-1000000'" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-string digit limit is set")
@pytest.mark.parametrize("argv, named", [
    (("feasibility", "--gammas", f"1e-{_DIGIT_LIMIT},1,1"), "--gammas"),
    (("simulate", "--strategy", "clone", "--gammas", f"1e-{_DIGIT_LIMIT},1,1",
      "--trials", "100"), "--gammas"),
    # det M's D**3 passes the limit though each value's exponent does not
    (("feasibility", "--gammas", ",".join([f"1e-{_DIGIT_LIMIT // 3}"] * 3),
      "--p12", "1", "--p13", "1", "--p23", "1"), "--gammas, --p12, --p13 has"),
])
def test_exact_output_past_the_digit_limit_names_its_options(capsys, argv, named):
    # the interpreter's own digit-limit error names no input
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and str(_DIGIT_LIMIT) in err


_NUMERAL = st.text(st.sampled_from("0123456789" * 4 + "_." + "\u0663\uff10"), max_size=12)
_SPACE = st.sampled_from(("", " ", "  ", "\t", "\n", "\u2003", "\xa0"))


@st.composite
def rational_texts(draw):
    """Plain p[/q] text and its near misses: signs, leading zeros, outer and
    inner spaces, underscores, decimals, non-ASCII digits, zero denominators."""
    text = draw(st.sampled_from(("", "-", "+", "+-"))) + draw(_NUMERAL)
    if draw(st.booleans()):
        text += draw(st.sampled_from(("/", "/", " /", "/ ", "//"))) + draw(_NUMERAL)
    return draw(_SPACE) + text + draw(_SPACE)


@settings(max_examples=1000, deadline=None)
@given(text=rational_texts())
@example(text="1/0")
@example(text=" -00/000 ")
@example(text="\t+007/0010\u2003")
@example(text="1_000/3")
@example(text="\uff11/2")
@example(text="1 /2")
def test_parse_rational_matches_fraction(text):
    # the plain-text fast path and the Fraction(text) path agree, errors included
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"not a rational number: {text!r}"
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-string digit limit is set")
@pytest.mark.parametrize("text", ["1" * (_DIGIT_LIMIT + 1), "-1/" + "3" * (_DIGIT_LIMIT + 1),
                                  "+" + "0" * (_DIGIT_LIMIT + 1)])
def test_parse_rational_past_the_digit_limit_exits_2(capsys, text):
    # the fast path's int() meets the limit where Fraction(text) does, and
    # exits with the same message
    with pytest.raises(ValueError):
        Fraction(text)
    for option in ("--gammas", "--p12"):
        value = f"{text},0,0" if option == "--gammas" else text
        extra = () if option == "--gammas" else ("--gammas", "0,0,0")
        code, out, err = run_cli(capsys, "feasibility", f"{option}={value}", *extra)
        assert code == 2 and out == ""
        assert err == f"error: not a rational number: {text!r}\n"


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_analytic_values(capsys):
    data = run_json(capsys, "optimize", "--case", "3bit", "--mode", "analytic")
    rep = data["reports"][0]
    assert rep["gammas_exact"] == ["7/127", "112/127", "112/127"]
    assert rep["value_exact"] == "224/127"
    data = run_json(capsys, "optimize", "--case", "2bit", "--mode", "analytic")
    assert data["reports"][0]["gammas_exact"] == ["1/7", "4/7", "4/7"]


def test_optimize_both_modes_no_regression(capsys):
    data = run_json(capsys, "optimize", "--case", "2bit", "--mode", "both",
                    "--resolution", "8")
    assert data["regression"] is False
    modes = [r["mode"] for r in data["reports"]]
    assert modes == ["analytic", "numeric"]
    numeric = data["reports"][1]
    assert numeric["value"] >= 2 * 0.57122


GOLDEN = Path(__file__).parent / "golden"


OPTIMIZE_GOLDENS = [
    (f"optimize_{case}_{objective}_r9",
     ("--mode", "both", "--case", case, "--objective", objective, "--resolution", "9"))
    for case in ("3bit", "2bit") for objective in ("gamma23", "gamma1")
] + [
    (f"optimize_numeric_{case}_{objective}_r{resolution}",
     ("--mode", "numeric", "--case", case, "--objective", objective,
      "--resolution", str(resolution)))
    for resolution in (8, 10, 11) for case in ("3bit", "2bit")
    for objective in ("gamma23", "gamma1")
]


# the ids number the argv tuples as they were numbered while the list also
# held a complex-flag run at index 4, so that each case keeps its test name
@pytest.mark.parametrize("name, argv", OPTIMIZE_GOLDENS,
                         ids=[f"{name}-argv{i + (i >= 4)}"
                              for i, (name, _) in enumerate(OPTIMIZE_GOLDENS)])
def test_optimize_stdout_matches_golden(capsys, name, argv):
    # the "both" runs were captured before the arrow kernel replaced the
    # per-point eigensolver, the "numeric" runs before the search pruned
    # its grid scan and memoised its refine verdicts (CPython 3.11, x86-64
    # Linux, glibc libm), each with the numeric report's echoed "seed" and
    # meta "complex_flags" deleted since. Every numeric report was
    # regenerated when the kernel's margin became DEFAULT_TOL / 2 and its
    # slack the Schur complement, and again when the refine began every
    # walk at the corner flags and stopped moving a flag (the evaluation
    # counts, and the last digits of the 3-bit r8 gamma23 and r10 values,
    # gammas, flags and certificates); the digits of the float fields
    # depend on the platform's libm
    code, out, err = run_cli(capsys, "optimize", *argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_every_golden_file_is_read():
    # a fixture whose test case was removed must be removed with it
    read = {f"{name}.json" for name, _ in OPTIMIZE_GOLDENS}
    read |= {"feasibility.json", "simulate.json"}
    assert {p.name for p in GOLDEN.iterdir()} == read


def test_optimize_rejects_complex_flags_option(capsys):
    # the numeric search takes real flags only (the sign-flag lemma)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--complex-flags"])
    assert exc.value.code == 2
    assert "--complex-flags" in capsys.readouterr().err


FEASIBILITY_GOLDEN = json.loads((GOLDEN / "feasibility.json").read_text())
#: keys of the 3-bit equal report that changed when its golden-section
#: search became the closed form at the corner
EQUAL_3BIT_RELABEL = {"mode": "analytic", "value_exact": "(124-24*sqrt(2))/127"}


@pytest.mark.parametrize("argv, code, parent",
                         [(g["argv"], g["code"], g["stdout"]) for g in FEASIBILITY_GOLDEN],
                         ids=[f"{g['argv'][0]}-{i}" for i, g in enumerate(FEASIBILITY_GOLDEN)])
def test_feasibility_stdout_matches_golden(capsys, argv, code, parent):
    # captured before M got one float assembly and the equal-efficiency
    # optimum its closed form (CPython 3.11, x86-64 Linux, glibc libm):
    # exact and float routes, complex flags, nonzero P23, negative flags
    # with and without "=", curves, csv/table, and the equal optima
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    if argv[:5] != ["optimize", "--case", "3bit", "--objective", "equal"]:
        assert out == parent
        return
    # the 3-bit equal report is now analytic, so it has an exact value and
    # no longer carries the numeric-only seed and evaluations
    old, new = json.loads(parent), json.loads(out)
    old_report, new_report = old["reports"][0], new["reports"][0]
    assert {k: v for k, v in old.items() if k != "reports"} == \
        {k: v for k, v in new.items() if k != "reports"}
    assert (old_report["mode"], old_report["value_exact"]) == ("numeric", None)
    want = {k: v for k, v in old_report.items() if k not in ("seed", "evaluations")}
    want.update(EQUAL_3BIT_RELABEL)
    assert list(new_report) == list(want) and new_report == want


def test_optimize_equal_objective_has_no_numeric_mode(capsys):
    # the equal optimum is analytic only, so a numeric-only request would
    # echo "mode": "numeric" over an analytic report
    code, out, err = run_cli(capsys, "optimize", "--objective", "equal",
                             "--mode", "numeric")
    assert (code, out) == (2, "")
    assert err == "error: --objective equal has no numeric search; use --mode analytic or both\n"


def test_optimize_equal_objective(capsys):
    data = run_json(capsys, "optimize", "--case", "2bit", "--objective", "equal")
    rep = data["reports"][0]
    assert rep["value"] == pytest.approx(0.4530818393219728, abs=1e-9)
    assert rep["value_exact"] == "(6-2*sqrt(2))/7"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_noclone(capsys):
    data = run_json(capsys, "simulate", "--case", "2bit", "--strategy", "noclone",
                    "--trials", "20000")
    assert data["exact"] == "11/16"
    assert abs(data["simulated"] - 0.6875) < 0.02
    assert data["seed"] == 0


SIMULATE_GOLDEN = json.loads((GOLDEN / "simulate.json").read_text())


@pytest.mark.parametrize("argv, parent",
                         [(g["argv"], g["stdout"]) for g in SIMULATE_GOLDEN],
                         ids=["_".join(g["argv"][2::2]) for g in SIMULATE_GOLDEN])
def test_simulate_stdout_matches_golden(capsys, argv, parent):
    # captured from the object-level simulator the slot tables replaced:
    # no-clone stdout is byte-equal; clone stdout equals it on every key
    # it had, after which the clone report appends p_success and posterior
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "noclone" in argv:
        assert out == parent
    else:
        old, new = json.loads(parent), json.loads(out)
        assert list(new)[:len(old)] == list(old)
        assert {k: new[k] for k in old} == old
        assert list(new)[len(old):] == ["p_success", "posterior"]


def test_simulate_noclone_rejects_gammas(capsys):
    code, out, err = run_cli(capsys, "simulate", "--strategy", "noclone",
                             "--gammas", "1/2,1/2,1/2", "--trials", "10")
    assert (code, out, err) == (2, "", "error: --gammas applies to the clone strategy only\n")


def test_simulate_clone_requires_gammas(capsys):
    code, _, err = run_cli(capsys, "simulate", "--strategy", "clone")
    assert code == 2
    assert "gammas" in err


def test_simulate_clone(capsys):
    data = run_json(capsys, "simulate", "--case", "3bit", "--strategy", "clone",
                    "--gammas", "7/127,112/127,112/127", "--trials", "20000")
    assert data["exact"] == "3749/4064"
    assert abs(data["simulated"] - 0.922) < 0.02


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_json_output_byte_identical(capsys):
    args = ("simulate", "--case", "3bit", "--strategy", "noclone",
            "--trials", "5000", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "simulate", "--case", "3bit", "--strategy",
                         "noclone", "--trials", "5000", "--seed", "10")
    assert out3 != out1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--strategy", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# rendering and dispatch
# ---------------------------------------------------------------------------

_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')


# subclasses leave the writer's exact-type loops for json's isinstance chain;
# json writes their values, never their own repr or str
class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


class _Float(float):
    def __repr__(self):
        return "not json"


class _Str(str):
    def __str__(self):
        return "not json"


class _List(list):
    pass


_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
           | st.floats() | st.sampled_from([-0.0, 5e-324, -2.2e-308, float("nan"),
                                            float("inf"), -float("inf")])
           | _TEXT | st.sampled_from(_Level) | _TEXT.map(_Str)
           | (st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"),
                                             -float("inf")])).map(_Float))
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.lists(kids, max_size=4).map(_List)
                      | st.dictionaries(_TEXT, kids, max_size=4)
                      | st.dictionaries(_TEXT, kids, max_size=4).map(collections.OrderedDict),
                      max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(_TEXT, _TREES, max_size=5))
@example({})
@example({"a": [], "b": {}, "c": (), "d": [[], {}, [[1.5]]]})
@example({"a": [_Level.LOW, _Float(0.5), _Float("nan"), _Str("x"), _List([_Float("-inf")])],
          _Str("b"): collections.OrderedDict(c=_List(), d=collections.OrderedDict()),
          "e": {"f": _Level.HIGH, "g": _Float(-0.0), "h": _Str('"')}})
def test_render_json_matches_json_dumps(payload):
    # render's own writer, byte for byte what json.dumps(indent=2) writes
    assert render(payload, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [{(1, 2): 0}, {"x": [Fraction(1, 3)]}, {"x": {"y": object()}}])
def test_render_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        render(payload, "json")


def test_render_never_reaches_the_pure_python_encoder(capsys, monkeypatch):
    # json.dumps with an indent builds its pure-Python encoder here; no CLI
    # payload may take that path
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)
    for argv in (["states"],
                 ["feasibility", "--gammas", "7/127,112/127,112/127", "--p12=1", "--p13=-1"],
                 ["feasibility", "--gammas", "0.3,0.5,0.5", "--p12=-0.5,0.25", "--p13=0.5"],
                 ["feasibility", "--case", "2bit", "--curve", "vw", "--points", "5"],
                 ["optimize", "--mode", "analytic"],
                 ["optimize", "--objective", "equal"],
                 ["simulate", "--strategy", "noclone", "--trials", "100"],
                 ["simulate", "--strategy", "clone", "--gammas", "7/127,112/127,112/127",
                  "--trials", "100"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert json.loads(out)


def _top_level_parse(argv):
    # how main parsed every argv before each command got its own parse
    parser, _ = cli._parser()
    return vars(parser.parse_args(cli._attach_signed_values(argv)))


def _bench_argvs():
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [list(op.argv) for wl in workloads.WORKLOADS.values() for op in wl.build(1)]


def test_dispatch_parses_as_the_top_level_parser_did(capsys, monkeypatch):
    # every golden and benchmark argv: the command's own parser gives the
    # namespace the top-level parser gave
    argvs = [g["argv"] for g in FEASIBILITY_GOLDEN + SIMULATE_GOLDEN]
    argvs += [["optimize", *argv] for _, argv in OPTIMIZE_GOLDENS] + _bench_argvs()
    seen = []
    for command in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, command,
                            lambda args: (seen.append(vars(args)), ({"ok": 1}, 0))[1])
    for argv in argvs:
        assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(seen) == len(argvs) > 900
    assert seen == [_top_level_parse(list(argv)) for argv in argvs]


def test_every_certify_point_has_the_reference_reduced_block(capsys):
    # the reduced block of each benchmark point against the alias forms,
    # on inputs read by Fraction(text)
    from test_feasibility import alias_reduced
    points = [argv for argv in _bench_argvs() if argv[0] == "feasibility" and "--gammas" in argv]
    assert len(points) > 600
    for argv in points:
        case, (g1, g2, _) = argv[2], map(Fraction, argv[4].split(","))
        flags = dict(token.split("=", 1) for token in argv[5:])
        p12, p13 = ((*map(Fraction, flags[name].split(",")), Fraction(0))[:2]
                    for name in ("--p12", "--p13"))
        values = alias_reduced(p12, p13, g1, g2, case)
        want = {"case": case, **{k: None if z is None else float(z)
                                 for k, z in zip("qsxyvw", values)}}
        assert repr(run_json(capsys, *argv)["reduced"]) == repr(want)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--case", "2bit"]])
def test_dispatch_without_a_command_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: probclone [-h] {states,feasibility,optimize,simulate}" in capsys.readouterr().err


def test_dispatch_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(command in out for command in ("states", "feasibility", "optimize", "simulate"))
    with pytest.raises(SystemExit) as exc:
        main(["feasibility", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: probclone feasibility [-h]")


def test_dispatch_rejects_unknown_options_with_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["feasibility", "--bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: probclone feasibility [-h]")
    assert err.endswith("probclone feasibility: error: unrecognized arguments: --bogus\n")


def test_run_config_invariants(capsys):
    code, _, err = run_cli(capsys, "simulate", "--strategy", "noclone", "--trials", "0")
    assert code == 2 and "trials" in err


def test_trials_past_the_bound_exit_2_naming_the_option(capsys, monkeypatch):
    # refused before a single trial runs
    monkeypatch.setattr(gamesim, "_run", None)
    for strategy in (("noclone",), ("clone", "--gammas", "1/2,1/2,1/2")):
        code, out, err = run_cli(capsys, "simulate", "--strategy", *strategy,
                                 "--trials", "10000000001")
        assert code == 2 and out == ""
        assert err == f"error: --trials must be 1 to {gamesim.MAX_TRIALS}\n"


@pytest.mark.parametrize("case", ["3bit", "2bit"])
@pytest.mark.parametrize("objective", ["gamma23", "gamma1"])
@pytest.mark.parametrize("overshoot, code", [(2e-6, 1), (5e-7, 0)])
def test_regression_sentinel_trips_past_its_margin(capsys, monkeypatch, case,
                                                   objective, overshoot, code):
    # a numeric value past the analytic bound by more than REGRESSION_MARGIN
    # exits 1; within it, 0. The search itself lands at most 1.71e-9 past.
    bound = optimize.analytic_optimum(case, objective).value
    search = optimize.numeric_search

    def overshooting_search(*args, **kwargs):
        return dataclasses.replace(search(*args, **kwargs), value=bound + overshoot)

    monkeypatch.setattr(optimize, "numeric_search", overshooting_search)
    got, out, _ = run_cli(capsys, "optimize", "--case", case, "--objective", objective)
    data = json.loads(out)
    assert (got, data["regression"]) == (code, code == 1)
    assert data["reports"][1]["value"] == bound + overshoot


def test_exact_flag_outside_the_unit_disc_exits_2(capsys):
    # 1e400 is exact too, and beyond float range: the message must not convert it
    for flag in ("10000000000001/10000000000000", "-1,1/100000000", "1e400", "0,-1e400"):
        code, out, err = run_cli(capsys, "feasibility", "--gammas", "0,0,0", f"--p12={flag}")
        assert code == 2 and out == "" and "exceeds 1" in err
    data = run_json(capsys, "feasibility", "--gammas", "0,0,0", "--p12", "-3/5,4/5")
    assert data["exact"] is True and data["psd"] is True


def test_out_of_range_counts_are_rejected(capsys):
    # above 100,000 points a curve would take seconds and hold every row
    for n in ("0", "1", "-4", "100001", "100000000"):
        code, out, err = run_cli(capsys, "feasibility", "--curve", "vw", "--points", n)
        assert code == 2 and out == "" and "--points" in err
    code, out, err = run_cli(capsys, "optimize", "--mode", "numeric",
                             "--iterations", "-3")
    assert code == 2 and out == "" and "iterations" in err


@pytest.mark.parametrize("mode, objective", [
    ("analytic", "gamma23"), ("both", "gamma1"), ("numeric", "gamma23"),
    ("analytic", "equal"), ("numeric", "equal"),
])
@pytest.mark.parametrize("option, value, message", [
    ("--resolution", "7", "--resolution must be at least 8"),
    ("--resolution", "-2", "--resolution must be at least 8"),
    ("--resolution", str(optimize.MAX_RESOLUTION + 1),
     f"--resolution must be at most {optimize.MAX_RESOLUTION}"),
    ("--resolution", "1000000", f"--resolution must be at most {optimize.MAX_RESOLUTION}"),
    ("--iterations", "-3", "--iterations must be non-negative"),
])
def test_optimize_counts_are_checked_in_every_mode(capsys, mode, objective,
                                                   option, value, message):
    code, out, err = run_cli(capsys, "optimize", "--mode", mode,
                             "--objective", objective, option, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, option", [
    ("states", "--seed"), ("states", "--trials"), ("states", "--tol"),
    ("feasibility", "--seed"), ("feasibility", "--trials"), ("feasibility", "--tol"),
    ("optimize", "--trials"), ("optimize", "--tol"),
    ("simulate", "--tol"),
])
def test_each_command_takes_only_the_options_it_reads(capsys, command, option):
    # the required options make the command valid without the rejected one
    required = {"simulate": ["--strategy", "noclone"],
                "feasibility": ["--gammas", "0,0,0"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, *required, option, "1e-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert option in captured.err and captured.out == ""


def test_out_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "states", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "states", "--case", "2bit",
                           "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["case"] == "2bit"


def test_csv_and_table_formats(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--case", "2bit", "--strategy",
                           "noclone", "--trials", "2000", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("exact,") for line in out.splitlines())
    code, out, _ = run_cli(capsys, "simulate", "--case", "2bit", "--strategy",
                           "noclone", "--trials", "2000", "--format", "table")
    assert code == 0
    assert "simulated" in out

