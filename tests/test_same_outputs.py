"""tools/same_outputs.py, run on a two-case corpus against HEAD, so it cannot rot.

The script runs in a repository of its own, made here from copies of what it
reads, so the test needs no git history of the tree it runs in."""

import os
import shutil
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_two_cases_against_head_are_the_same(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for tree in ("src", "tools"):
        shutil.copytree(os.path.join(_ROOT, tree), tmp_path / tree, ignore=ignore)
    (tmp_path / "tests").mkdir()
    shutil.copy(os.path.join(_ROOT, "tests", "corpus.py"), tmp_path / "tests")
    # with an identity of its own, as a CI runner has none
    git = ["git", "-C", str(tmp_path), "-c", "user.name=same-outputs", "-c", "user.email=same-outputs@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "copy"]):
        subprocess.run(git + args, check=True, capture_output=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "same_outputs.py"), "HEAD", "--cases", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same_outputs HEAD: 2 cases compared, 0 differing, first differing: none\n"
