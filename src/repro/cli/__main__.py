"""``python -m repro.cli``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
