"""Layer probes: timing wrappers around probclone's public functions.

The layers are probclone's modules. A probe replaces one function for
the duration of a traced run with a wrapper that counts calls and adds
up their wall time (``perf_counter_ns``). Nothing inside the package is
changed on disk; spans are aggregated per probe rather than stored, so
the 2 M eigensolver calls of a search pass cost counters, not memory.
Each span also charges its time to the enclosing probed span, which
gives self time (a span minus the probed calls inside it).

Module-level functions are rebound in every loaded ``probclone`` module
that holds them, including module-level dicts (``optimize`` imports
``build_matrix`` by name; ``cli`` dispatches through ``_COMMANDS``).
Methods are patched on their class. A probe whose target no longer
exists is recorded in ``absent`` and the metrics that need it are
reported as absent instead of crashing the run.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

#: probe name -> (probclone submodule, attribute path)
TARGETS = {
    "eig": ("feasibility", "hermitian3_eigvals"),
    "build": ("feasibility", "build_matrix"),
    "minors.principal": ("feasibility", "FeasibilityPoint.principal_minors"),
    "minors.leading": ("feasibility", "FeasibilityPoint.leading_minors"),
    "minors.det": ("feasibility", "FeasibilityPoint.det"),
    "search": ("optimize", "numeric_search"),
    "analytic": ("optimize", "analytic_optimum"),
    "equal": ("optimize", "equal_gamma_optimum"),
    "simulate.noclone": ("gamesim", "simulate_no_clone"),
    "simulate.clone": ("gamesim", "simulate_clone"),
    "enumerate.noclone": ("gamesim", "score_no_clone_enumerated"),
    "enumerate.clone": ("gamesim", "score_clone_enumerated"),
    "sample": ("funcspace", "TaskFamily.sample_instance"),
    "family": ("funcspace", "TaskFamily.__init__"),
    "gram": ("phasestate", "gram"),
    "render": ("cli", "render"),
    "cmd.states": ("cli", "cmd_states"),
    "cmd.feasibility": ("cli", "cmd_feasibility"),
    "cmd.optimize": ("cli", "cmd_optimize"),
    "cmd.simulate": ("cli", "cmd_simulate"),
}

#: probes timed only at the outermost call of their group (det runs
#: inside leading_minors and principal_minors)
GROUPS = {"minors.principal": "minors", "minors.leading": "minors",
          "minors.det": "minors"}

#: a float-route eigenvalue below -PSD_TOL is a rejected (wasted) evaluation;
#: the CLI default --tol
PSD_TOL = 1e-9


def _resolve(modname: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(f"probclone.{modname}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = vars(owner).get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Installs the probes, collects per-probe counts and times, removes them."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        #: time spent in probed calls made from inside each probe (the
        #: eigensolver probe is not counted: it is kept out of the span stack)
        self.child_ns: Counter = Counter()
        self.eig = [0, 0, 0]         # eigensolver calls, ns, lambda_min < -PSD_TOL
        self.exact_builds = 0        # build_matrix results on the exact route
        self.absent: dict[str, str] = {}
        self._depth: Counter = Counter()
        self._stack: list[str] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------

    def _timed(self, probe: str, fn):
        calls, ns, child_ns = self.calls, self.ns, self.child_ns
        depth, stack = self._depth, self._stack
        group = GROUPS.get(probe, probe)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] += 1
            stack.append(probe)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                depth[group] -= 1
                ns[probe] += took
                calls[probe] += 1
                if stack:
                    child_ns[stack[-1]] += took
        return wrapper

    def _eig(self, fn):
        # hot path (millions of calls): plain locals, no group bookkeeping
        clock = time.perf_counter_ns
        acc = self.eig

        def wrapper(m):
            t0 = clock()
            out = fn(m)
            acc[1] += clock() - t0
            acc[0] += 1
            if out[0] < -PSD_TOL:
                acc[2] += 1
            return out
        return wrapper

    def _build(self, fn):
        timed = self._timed("build", fn)

        def wrapper(*args, **kwargs):
            point = timed(*args, **kwargs)
            self.exact_builds += point.is_exact
            return point
        return wrapper

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "probclone" or name.startswith("probclone.")]
        for probe, (modname, path) in TARGETS.items():
            found = _resolve(modname, path)
            if found is None:
                self.absent[probe] = f"probclone.{modname}.{path} not found"
                continue
            owner, attr, original = found
            if probe == "eig":
                wrapper = self._eig(original)
            elif probe == "build":
                wrapper = self._build(original)
            else:
                wrapper = self._timed(probe, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._rebind(mods, original, wrapper)

    def _rebind(self, mods, original, wrapper) -> None:
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((value, key, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # -- results -----------------------------------------------------

    def seconds(self, *probes: str) -> float:
        return sum(self.ns[p] for p in probes) / 1e9

    def self_seconds(self, *probes: str) -> float:
        return sum(self.ns[p] - self.child_ns[p] for p in probes) / 1e9

    def missing(self, *probes: str) -> str | None:
        gone = [self.absent[p] for p in probes if p in self.absent]
        return "; ".join(gone) if gone else None


MINORS = ("minors.principal", "minors.leading", "minors.det")
SIMULATE = ("simulate.noclone", "simulate.clone")
ENUMERATE = ("enumerate.noclone", "enumerate.clone")
CMDS = ("cmd.states", "cmd.feasibility", "cmd.optimize", "cmd.simulate")


def layer_metrics(tr: Tracer, evaluations: int, grid_points: int, trials: int,
                  main_s: float):
    """Per-layer metrics of a traced run (set-up plus one pass).

    ``evaluations`` (from the search reports), ``grid_points`` (from the
    op list), ``trials`` and ``main_s`` (the benchmark's own timing of
    ``cli.main``) come from outside the probes. Returns ``(metrics,
    absent, undefined)``: a ratio whose base is zero on this workload is
    reported as 0 and named in ``undefined``; a metric whose probe
    target is gone is left out and named with its reason in ``absent``.
    """
    metrics, absent, undefined = {}, {}, []
    eig_calls, eig_ns, infeasible = tr.eig

    def put(name, unit, probes, value, base=1):
        reason = tr.missing(*probes)
        if reason:
            absent[name] = reason
            return
        if not base:
            undefined.append(name)
            value = 0.0
        metrics[name] = {"value": value() if callable(value) else value, "unit": unit}

    search_s = tr.seconds("search")
    simulate_s = tr.seconds(*SIMULATE)
    cmd_s = tr.seconds(*CMDS)
    put("feasibility.eig_calls", "count", ["eig"], eig_calls)
    put("feasibility.eig_s", "s", ["eig"], eig_ns / 1e9)
    put("feasibility.eig_ns_per_call", "ns", ["eig"],
        lambda: eig_ns / eig_calls, eig_calls)
    put("feasibility.eig_share", "frac", ["eig", "search"],
        lambda: eig_ns / 1e9 / search_s, search_s)
    put("feasibility.infeasible_frac", "frac", ["eig"],
        lambda: infeasible / eig_calls, eig_calls)
    put("feasibility.build_exact_calls", "count", ["build"], tr.exact_builds)
    put("feasibility.build_float_calls", "count", ["build"],
        tr.calls["build"] - tr.exact_builds)
    put("feasibility.build_s", "s", ["build"], tr.seconds("build"))
    put("feasibility.minors_s", "s", MINORS, tr.seconds(*MINORS))
    put("optimize.search_s", "s", ["search"], search_s)
    put("optimize.evaluations", "count", [], evaluations)
    put("optimize.grid_points", "count", [], grid_points)
    put("optimize.refine_evals", "count", [], evaluations - grid_points)
    put("optimize.us_per_eval", "us", ["search"],
        lambda: search_s / evaluations * 1e6, evaluations)
    put("optimize.analytic_s", "s", ["analytic", "equal"],
        tr.seconds("analytic", "equal"))
    put("gamesim.simulate_s", "s", SIMULATE, simulate_s)
    put("gamesim.us_per_trial", "us", SIMULATE,
        lambda: simulate_s / trials * 1e6, trials)
    # self time of simulate: sampling and enumeration run inside it
    put("gamesim.trial_self_s", "s", SIMULATE + ("sample",) + ENUMERATE,
        tr.self_seconds(*SIMULATE))
    put("gamesim.enumerate_s", "s", ENUMERATE, tr.seconds(*ENUMERATE))
    put("funcspace.sample_calls", "count", ["sample"], tr.calls["sample"])
    put("funcspace.sample_s", "s", ["sample"], tr.seconds("sample"))
    put("funcspace.family_build_s", "s", ["family"], tr.seconds("family"))
    put("phasestate.gram_calls", "count", ["gram"], tr.calls["gram"])
    put("phasestate.gram_s", "s", ["gram"], tr.seconds("gram"))
    put("cli.parse_s", "s", CMDS + ("render",),
        main_s - cmd_s - tr.seconds("render"))
    put("cli.cmd_s", "s", CMDS, cmd_s)
    put("cli.render_s", "s", ["render"], tr.seconds("render"))
    return metrics, absent, undefined
