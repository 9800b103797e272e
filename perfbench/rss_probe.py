"""Run one falsecall CLI command and print the process's peak RSS in KiB.

Usage: python3 rss_probe.py <falsecall arguments...>

The command's own output goes to standard error, so the last line of
standard output is the peak resident set size.  The exit code is the
command's.
"""

import contextlib
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from falsecall.cli import main  # noqa: E402

if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        code = main(sys.argv[1:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.exit(code)
