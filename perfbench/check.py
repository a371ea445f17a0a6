"""Compare the deterministic sections of two benchmark records.

Usage (from the repository root)::

    python3 perfbench/check.py .perfbench/chaos-seed1-trace0.json \
        .perfbench/chaos-seed1-trace1.json

A record's deterministic section lists, for the leading instances of
its workload, the verdict, output digest, honest bits, rounds and
per-instance operation counters.  Two runs of the same code and seed,
traced or not, must produce identical sections.  Exit status: 0 when
identical, 1 when they differ (the first difference is printed), 2 when
a record cannot be read or lacks the section.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)["deterministic"]


def first_difference(left: dict, right: dict) -> str | None:
    for key in ("workload", "seed"):
        if left[key] != right[key]:
            return f"{key}: {left[key]!r} != {right[key]!r}"
    ours, theirs = left["instances"], right["instances"]
    if len(ours) != len(theirs):
        return f"instance count: {len(ours)} != {len(theirs)}"
    for mine, other in zip(ours, theirs):
        if mine != other:
            fields = sorted(k for k in mine if mine[k] != other.get(k))
            return f"instance {mine['i']}: fields {fields} differ"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        left, right = (load(path) for path in argv)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot read record: {error}", file=sys.stderr)
        return 2
    difference = first_difference(left, right)
    if difference is not None:
        print(f"DIFFERENT: {difference}")
        return 1
    print(
        f"identical: {left['workload']} seed {left['seed']}, "
        f"{len(left['instances'])} instances"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
