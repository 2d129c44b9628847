"""``python -m gausslab ARGS``: the same command line as the ``gausslab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
