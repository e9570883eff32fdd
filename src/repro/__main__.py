"""Entry point for ``python -m repro`` — the consolidated declarative CLI.

Subcommands: ``train`` / ``serve`` / ``pipeline`` / ``experiment`` /
``validate-config`` / ``describe`` / ``analyze`` (see
:mod:`repro.api.cli`).  The historical experiment runner is available as
``python -m repro experiment run fig8 ...``.
"""

import sys

from repro.api.cli import main

if __name__ == "__main__":
    sys.exit(main())
