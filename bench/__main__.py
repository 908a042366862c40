"""``python -m bench`` (see ``bench.cli``)."""

from bench.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
