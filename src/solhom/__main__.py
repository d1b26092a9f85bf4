"""Run the command line interface: python -m solhom analyze --c 3/2."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
