"""``python -m poromoist``: the same command line as the ``poromoist`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
