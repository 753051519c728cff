"""``python -m courantcalc``: the command-line front end in ``cli``."""

import sys

from .cli import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
