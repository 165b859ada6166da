"""``python -m probclone``: the command-line interface of ``probclone.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
