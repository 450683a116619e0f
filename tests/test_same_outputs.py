"""tools/same_outputs.py, run on a two-case corpus against HEAD, so it cannot rot."""

import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_two_cases_against_head_are_the_same():
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "same_outputs.py"), "HEAD", "--cases", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same_outputs HEAD: 2 cases compared, 0 differing, first differing: none\n"
