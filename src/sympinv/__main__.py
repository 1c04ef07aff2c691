"""``python -m sympinv``: the command-line front end, exiting with its code."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
