"""``python -m cavres``: the ``cavres`` command line (see cavres.cli)."""

import sys

from cavres.cli import main

# the package tests import every module, so the call must not run on import
if __name__ == "__main__":
    sys.exit(main())
