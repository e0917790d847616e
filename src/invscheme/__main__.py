"""Command line entry point: python -m invscheme."""

import sys

from .harness import cli_main

if __name__ == "__main__":
    sys.exit(cli_main())
