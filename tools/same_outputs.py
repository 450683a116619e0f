"""Compare a parent commit's run outputs with the working tree's on the scenario corpus.

    python3 tools/same_outputs.py PARENT [--cases N]

The parent is extracted with `git archive` into a temporary directory; the
other side is this checkout's `src`, uncommitted edits included. The first
N cases of `tests/corpus.py` (3000 by default) are written out as scenario
files, and each side runs every case in one child process of its own, with
its `src` on `PYTHONPATH`, through `ffsched.cli.main(["run", "--scenario",
FILE, "--seed", SEED, "--trace"])`. A case's output is the sha256 of its
exit code, stdout and stderr. The script prints one line: the cases
compared, the cases whose outputs differ, and the first of them, then exits
0 when none differ and 1 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import _extract  # noqa: E402
from corpus import cases  # noqa: E402

# reads [[scenario path, seed], ...] from the file argv[1] and prints one digest per case
CHILD = """
import contextlib, hashlib, io, json, sys
import ffsched.cli

for path, seed in json.load(open(sys.argv[1], encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ffsched.cli.main(["run", "--scenario", path, "--seed", str(seed), "--trace"])
        except SystemExit as exc:  # argparse exits on a refused argument
            code = exc.code
    print(hashlib.sha256(f"{code}\\0{out.getvalue()}\\0{err.getvalue()}".encode()).hexdigest())
"""


def digests(src: str, listing: str) -> list[str]:
    """Each case's digest, run in one child process over the ffsched in `src`
    (from the listing's directory, so no other ffsched is on its path)."""

    env = {**os.environ, "PYTHONPATH": src}
    cwd = os.path.dirname(listing)
    proc = subprocess.run([sys.executable, "-c", CHILD, listing], cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the child over {src} failed with exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc.stdout.split()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT", help="the commit whose outputs the working tree must repeat")
    parser.add_argument("--cases", type=int, default=3000, help="corpus cases to run (default %(default)s)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        _extract(args.parent, os.path.join(tmp, "parent"))
        listing = []
        for i, (text, seed) in enumerate(cases(args.cases)):
            path = os.path.join(tmp, f"case{i}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            listing.append([path, seed])
        listed = os.path.join(tmp, "cases.json")
        with open(listed, "w", encoding="utf-8") as fh:
            json.dump(listing, fh)
        parent = digests(os.path.join(tmp, "parent", "src"), listed)
        change = digests(os.path.join(ROOT, "src"), listed)
    if len(parent) != len(listing) or len(change) != len(listing):
        raise RuntimeError(f"{len(listing)} cases, but {len(parent)} parent and {len(change)} change outputs")
    differing = [i for i, (a, b) in enumerate(zip(parent, change)) if a != b]
    first = f"case {differing[0]}" if differing else "none"
    print(f"same_outputs {args.parent}: {len(listing)} cases compared, {len(differing)} differing, first differing: {first}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
