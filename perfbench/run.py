"""probclone benchmark: end-to-end and per-layer timings of the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {search,montecarlo,certify} \\
        --seed N --seconds S --trace {0,1}

The benchmark drives ``probclone.cli.main(argv)`` in this one process
(no worker threads, ``--threads`` left at 1) over a seeded op list from
``workloads.py``, checks every output against ``oracle.py`` and repeats
the op list ("a pass") until the next pass would overrun ``--seconds``.
Each op's time is its fastest repeat over the passes (see ``best_op_ms``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     median time from a fresh interpreter to ready
                  (``ready.py``: import plus the per-case caches),
                  over child interpreters started between passes
* ``wall_s``      one warm pass: the sum of the op times
* ``op_p50_ms``, ``op_p90_ms``  median and 90th percentile of the op times
* ``work_per_s``  the workload's unit of work per second of ``wall_s``:
                  Monte Carlo trials, search evaluations or CLI ops
* ``peak_rss_mb`` peak resident memory of this process

``--trace 1`` installs the layer probes (``probes.py``), runs set-up and
one pass traced, removes the probes, then runs untraced passes for the
rest of ``--seconds``; it reports the per-layer metrics and
``trace_overhead_frac`` (traced pass / median untraced pass - 1), and
asserts each workload's bypass prediction.

Output: a provenance line, a summary line (error rate, exact counts,
absent or undefined metrics), and last the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
exits 2 without a result when ``probclone`` is not importable from this
checkout's ``src`` or resolves anywhere else.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import probes
import ready
from workloads import WORKLOADS, Op, Workload, evaluations

#: child interpreters timed for setup_s, spread evenly over the run (one
#: more runs first, untimed, so the bytecode cache is warm)
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

#: per-layer predictions checked in the traced run: layers each workload bypasses
BYPASS = {
    "search": ("funcspace.sample_calls",),
    "montecarlo": ("feasibility.eig_calls",),
    "certify": ("funcspace.sample_calls",),
}


@dataclass
class Pass:
    op_ns: list = field(default_factory=list)
    units: int = 0
    evaluations: int = 0
    trials: int = 0
    failures: list = field(default_factory=list)
    #: exact per-op counts, keyed by the op's argv
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.op_ns) / 1e9


def run_op(main, op: Op):
    """One ``cli.main`` call: (ns, failure reason or None, parsed output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter_ns()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code
        except Exception as exc:           # the program crashed on this op
            return time.perf_counter_ns() - t0, f"raised {exc!r}", None
        ns = time.perf_counter_ns() - t0
    if code != 0:
        return ns, f"exit code {code}", None
    try:
        payload = json.loads(out.getvalue())
        return ns, op.check(payload), payload
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ns, f"malformed output: {exc!r}", None


def op_key(op: Op) -> str:
    """The op's command line without its seed, the same under every bench seed."""
    argv = list(op.argv)
    if "--seed" in argv:
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
    return " ".join(argv)


def run_pass(main, ops: list[Op], wl: Workload) -> Pass:
    p = Pass()
    for op in ops:
        ns, failure, payload = run_op(main, op)
        p.op_ns.append(ns)
        if failure:
            p.failures.append(f"{' '.join(op.argv)}: {failure}")
            continue
        p.units += wl.units(payload)
        p.evaluations += evaluations(payload)
        p.trials += payload.get("trials", 0)
        if evaluations(payload):
            p.counts[op_key(op)] = evaluations(payload)
    return p


def run_passes(main, ops, wl, seconds: float, between=None) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``; at least one.

    ``between(fraction_of_seconds_elapsed)`` runs after each pass, untimed.
    """
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(main, ops, wl))
        took = time.perf_counter() - t0
        if between:
            between((time.perf_counter() - start) / seconds)
        if time.perf_counter() - start + took > seconds:
            return passes


class SetupTimer:
    """Times fresh interpreters from start to ready (``ready.py``), in children.

    On a shared host other tenants slow every process in phases of
    seconds, and a fresh process suffers more than a warm loop, so the
    samples are spread over the run instead of taken back to back.
    """

    def __init__(self):
        self.cmd = [sys.executable, str(Path(ready.__file__).resolve())]
        self.samples: list[float] = []
        self._child()                  # warms the bytecode cache; not kept

    def _child(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ready.ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        return took

    def sample_until(self, fraction: float) -> None:
        """Take the samples due once ``fraction`` of the run has elapsed."""
        due = min(SETUP_SAMPLES, 1 + int(fraction * (SETUP_SAMPLES - 1)))
        while len(self.samples) < due:
            self.samples.append(self._child())


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(pc) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "git_commit": git_commit(ready.ROOT),
            "probclone_file": str(Path(pc.__file__).resolve()),
            "probclone_version": pc.__version__}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_op_ms(passes: list[Pass]) -> list[float]:
    """Each op's fastest time over the passes, in ms.

    Other tenants of a shared host slow it down in phases of seconds
    (a fixed Python loop ran 33 to 58 ms per chunk on a 2-vCPU cloud VM).
    The fastest repeat of the same op is what the op itself costs (the
    timeit rule); medians over passes move with the share of a run that
    fell in a slow phase.
    """
    return [min(p.op_ns[i] for p in passes) / 1e6 for i in range(len(passes[0].op_ns))]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    op_ms = best_op_ms(passes)
    wall_s = sum(op_ms) / 1e3
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall_s, "s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(op_ms, n=10, method="inclusive")[-1], "ms"),
        "work_per_s": metric(passes[0].units / wall_s, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_problems(workload: str, metrics: dict, trials: int) -> list[str]:
    """Per-layer predictions that do not hold; metrics marked absent are skipped."""
    problems = [f"{name} = {metrics[name]['value']}, predicted 0"
                for name in BYPASS[workload]
                if name in metrics and metrics[name]["value"] != 0]
    sampled = metrics.get("funcspace.sample_calls")
    if sampled and sampled["value"] != trials:
        problems.append(f"funcspace.sample_calls = {sampled['value']}, trials = {trials}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        pc = ready.import_probclone()
    except ImportError as exc:
        print(f"error: cannot measure this checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(pc)}), flush=True)

    wl = WORKLOADS[args.workload]
    ops = wl.build(args.seed)
    main_fn = pc.cli.main
    summary: dict = {"workload": args.workload, "seed": args.seed,
                     "trace": args.trace, "ops_per_pass": len(ops),
                     "work_unit": wl.unit}
    problems: list[str] = []      # failed per-layer assertions (traced run)

    if args.trace:
        tracer = probes.Tracer()
        tracer.install()
        try:
            ready.ready(pc)
            traced = run_pass(main_fn, ops, wl)
        finally:
            tracer.remove()
        passes = [traced] + run_passes(main_fn, ops, wl, args.seconds - traced.seconds)
        untraced_s = statistics.median(p.seconds for p in passes[1:])
        metrics, absent, undefined = probes.layer_metrics(
            tracer, traced.evaluations, sum(op.grid_points for op in ops),
            traced.trials, traced.seconds)
        metrics["trace_overhead_frac"] = metric(traced.seconds / untraced_s - 1, "frac")
        problems = layer_problems(args.workload, metrics, traced.trials)
        summary.update(absent=absent, undefined=undefined, layer_assertions=problems)
    else:
        setup = SetupTimer()
        setup.sample_until(0.0)
        ready.ready(pc)
        passes = run_passes(main_fn, ops, wl, args.seconds, setup.sample_until)
        setup.sample_until(1.0)
        metrics = end_to_end(passes, setup.samples)
        summary["setup_samples_s"] = setup.samples
        if args.workload == "montecarlo":
            summary["trials_per_s"] = metrics["work_per_s"]["value"]

    attempted = sum(len(p.op_ns) for p in passes)
    failures = [f for p in passes for f in p.failures]
    summary.update(passes=len(passes), op_samples=attempted,
                   error_rate=len(failures) / attempted,
                   exact_counts=passes[0].counts, failures=failures[:5])
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
