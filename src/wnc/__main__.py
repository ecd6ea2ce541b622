"""``python -m wnc``: the command-line front end (see ``wnc.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
