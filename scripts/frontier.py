#!/usr/bin/env python3
"""Run the frontier cones end to end and check their report bytes.

Each row runs one ``conic`` command in a child process, on the engine of
this checkout, and prints the child's CPU seconds (user plus system),
its peak RSS and the sha256 of its standard output.  A sha256 that
differs from the row's pin, or a child that does not exit 0, makes the
script exit 1.  Row names given as arguments select those rows:

    python3 scripts/frontier.py                  # every row
    python3 scripts/frontier.py octahedron_w2    # the rows named

The rank-5 cones are draws 7, 14 and 15 of ``RANK5_CONES`` in
``tests/test_census.py``, given by their normals.  Draw 15 takes about
30 s of CPU and 1.2 GiB of RSS.  Row ``cone_a_w1`` asks every ordered
class pair of cone A (``CONE_A`` in ``tests/test_cli.py``) at window
radius 1: 280,900 pair rows, a 50,060,399-byte report.  Row
``octahedron_nccr`` asks the NCCR verdict of the cone over the
octahedron over every class but A2, whose spliced resolutions were once
refused for a validation window past the window budget; its normals are
the test fixture's, in the fixture's order, so the labels agree.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DRAW_7 = ((-2, -5, -2, -1, 4), (-2, 3, 2, -1, 0), (-1, 1, -1, 3, 2),
          (-1, 2, -2, 4, 3), (-1, 2, 0, 2, 1), (-1, 2, 1, 0, 0),
          (0, -1, -1, -1, 1), (0, 0, -1, 0, 1), (0, 1, 1, 0, 0),
          (1, 0, 0, 0, 1), (2, -2, 2, 1, 3), (4, -1, 1, -1, 3))
DRAW_14 = ((-3, -2, -3, 1, 2), (-3, -1, -2, 0, 2), (-1, -3, 2, -8, 6),
           (-1, -2, -1, 3, 2), (-1, 1, 2, 0, 2), (1, -3, 1, -4, 3),
           (1, -1, 1, 0, 1), (1, 0, -1, 1, 0), (1, 3, -2, 0, 2),
           (2, 0, -1, 1, 0), (3, 1, -2, 2, 0))
DRAW_15 = ((-7, 4, -2, -6, -1), (-2, 2, -1, 0, 1), (-1, -4, 2, -2, 1),
           (-1, 1, 0, -1, 0), (0, 0, 0, 1, 1), (2, -2, 6, -1, 3),
           (2, 3, -4, 10, 9), (3, -4, -6, -2, 5), (7, 2, 3, 1, 6))
# cone A of ROADMAP.md, 530 classes
CONE_A = ((-1, -2, 4, 3), (-1, 0, 0, 1), (0, -1, -2, 1), (0, -1, 1, 1),
          (0, 1, 0, 1), (1, 0, -2, 1), (1, 0, 0, 1), (1, 2, 2, 3))
# the cone over the octahedron, the rank-4 test fixture
OCTAHEDRON = ((-1, -1, -1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1),
              (-1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, 1), (1, 1, -1, 1),
              (1, 1, 1, 1))
# every class label of the octahedron's 200 but A2
OCTAHEDRON_BUT_A2 = ",".join(f"A{i}" for i in range(200) if i != 2)

# name -> (command arguments, rank, normals, sha256 of standard output);
# the sha256 values were recorded before windows were kept per offset,
# and cone_a_w1's while each class's windows still took a certificate
ROWS = {
    "draw7": (["analyze", "--json"], 5, DRAW_7,
              "12199a1878422db745fac5979d7027fb6d59e12a9858b3e26b3171bd9e38c057"),
    "draw14": (["analyze", "--json"], 5, DRAW_14,
               "1a4f2500a8673db7f56f7965c58dab9e0d58f766c6c34c20c1caa557e5c5bfe8"),
    "draw15": (["analyze", "--json"], 5, DRAW_15,
               "892dd8a3f23ca86e2c4365a34cab12470d5c1b9ca6fe6d5a7660cc7f200a346a"),
    "octahedron_w2": (["analyze", "--window", "2", "--json"], 4, OCTAHEDRON,
                      "8b122ad12e1d15ee8c429effb7667637cfc7f1be073f4f634d468937a7fc3c77"),
    "cone_a_w1": (["analyze", "--window", "1", "--json"], 4, CONE_A,
                  "68a82a9f28956dcda8c6b49a4e73ef1d762da74a034bfdbd7f1646f0ffa3b594"),
    "octahedron_nccr": (["nccr", "--support", OCTAHEDRON_BUT_A2, "--json"], 4,
                        OCTAHEDRON,
                        "599d296304c65da36017d8e068dba1d2e906ea3f2ad9a4f537418716ab87526e"),
}

CHILD = ("import sys; from conic.cli_io import main; "
         "sys.exit(main(sys.argv[1:]))")


def run(args, rank, normals):
    """Run ``conic args`` on the cone in a child; return its exit code,
    CPU seconds, peak RSS in MiB and the sha256 of its standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cone = json.dumps({"rank": rank, "normals": normals}).encode()
    digest = hashlib.sha256()
    with subprocess.Popen(
            [sys.executable, "-c", CHILD, *args, "--input", "-"], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        child.stdin.write(cone)
        child.stdin.close()
        while chunk := child.stdout.read(1 << 20):
            digest.update(chunk)
        # wait4 reads this child's own usage, not the largest of all children
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, digest.hexdigest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="*", metavar="ROW",
                    help=f"rows to run (default: all of {', '.join(ROWS)})")
    names = ap.parse_args(argv).rows or list(ROWS)
    unknown = [name for name in names if name not in ROWS]
    if unknown:
        ap.error(f"unknown rows: {', '.join(unknown)}")
    bad = 0
    for name in names:
        args, rank, normals, pin = ROWS[name]
        code, cpu, rss, sha = run(args, rank, normals)
        ok = code == 0 and sha == pin
        bad += not ok
        print(f"{name}: exit {code}, {cpu:.2f} s CPU, {rss:.1f} MiB peak RSS, "
              f"sha256 {sha} {'ok' if ok else 'MISMATCH'}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
