#!/usr/bin/env python3
"""Regenerate ``frozen.json``: digests of the basis-ring RREF bases.

    python3 pipebench/freeze.py

The RREF of a matrix is unique, so a kernel basis computed once by a
trusted build stays the reference for every later change; regenerate only
when a basis job itself changes, and review the diff.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from worker import digest  # noqa: E402

import gkmcalc  # noqa: E402


def main():
    frozen = {}
    for job in gen.basis_ring(0):
        if job["kind"] != "basis":
            continue
        basis = gkmcalc.equivariant_basis(gkmcalc.graph_from_json(job["doc"]), job["arg"])
        if len(basis) != job["expect"]["count"]:
            raise SystemExit(f"{job['name']}: {len(basis)} classes, reference says "
                             f"{job['expect']['count']}; not freezing")
        frozen[job["expect"]["frozen"]] = digest([c.to_json() for c in basis])
    (HERE / "frozen.json").write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
