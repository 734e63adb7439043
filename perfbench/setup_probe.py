"""Set-up probe: a fresh interpreter imports laplaceqm and runs one operation.

Usage: python3 setup_probe.py <laplaceqm arguments...>, with the package's
``src`` directory on PYTHONPATH.  Exits with the operation's exit code; the
caller times the whole process.
"""

import contextlib
import io
import sys

from laplaceqm import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
sys.exit(code)
