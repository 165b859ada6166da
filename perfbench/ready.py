"""Set-up of the measured program: import probclone and fill its caches.

``ready()`` is what every run pays before its first operation: the
package import plus the per-case ``family``, measurement-table and
``case_gram`` caches. Run as a script it does exactly that in a fresh
interpreter and exits, so the parent can time "fresh interpreter to
ready" (``setup_s``). The script refuses a ``probclone`` that resolves
outside this checkout's ``src`` tree and exits 2.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CASES = ("3bit", "2bit")


def import_probclone():
    """Import probclone from this checkout's ``src``, or raise ImportError."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import probclone
    import probclone.cli  # noqa: F401  (the benchmark drives cli.main)

    where = Path(probclone.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise ImportError(f"probclone resolves to {where}, outside {SRC}")
    return probclone


def ready(pc) -> None:
    """Fill the caches every command relies on, for both cases."""
    for case in CASES:
        pc.family(case)
        pc.case_gram(case)
        # the enumerated score is the public call that builds the
        # measurement tables (S1/S2 outcome distributions) for the case
        pc.score_no_clone_enumerated(case)


if __name__ == "__main__":
    try:
        ready(import_probclone())
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
