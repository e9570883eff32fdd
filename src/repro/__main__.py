"""Entry point for ``python -m repro`` (see :mod:`repro.api.cli`).

Subcommands: ``train`` / ``serve`` / ``pipeline`` / ``experiment`` /
``validate-config`` / ``describe`` / ``analyze``; the paper's tables and
figures run as ``python -m repro experiment run fig8 --scale tiny``.
"""

import sys

from repro.api.cli import main

if __name__ == "__main__":
    sys.exit(main())
