"""``python -m chunkasr``: the same commands as the ``chunkasr`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
