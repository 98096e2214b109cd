"""Compare two `prodint verify --report` files row by row.

    python tests/compare_reports.py BEFORE.json AFTER.json

Prints the record count of each report and, per record name, how many rows
changed their value (lhs or rhs, compared bit for bit).  Exits 1 if the
reports differ in length or any row differs in name, tol, passed, detail or
kind, so that a change of the oracle's arithmetic can show that it moved
values only.
"""

import json
import struct
import sys
from collections import Counter

FIXED = ("name", "tol", "passed", "detail", "kind")


def float_bits(x):
    return struct.pack("<d", x)


def compare(before, after):
    """(rows whose fixed fields differ, per-name counts of rows whose values differ)."""
    mismatched, changed = [], Counter()
    for i, (old, new) in enumerate(zip(before, after)):
        if any(old[field] != new[field] for field in FIXED):
            mismatched.append(i)
        elif any(float_bits(old[side]) != float_bits(new[side]) for side in ("lhs", "rhs")):
            changed[old["name"]] += 1
    return mismatched, changed


def main(argv):
    before, after = (json.load(open(path, encoding="utf-8"))["records"] for path in argv)
    mismatched, changed = compare(before, after)
    print(f"records: {len(before)} before, {len(after)} after")
    print(f"rows differing in {', '.join(FIXED)}: {len(mismatched)}")
    for name, count in sorted(Counter(r["name"] for r in before).items()):
        print(f"{name}: {changed[name]} of {count} rows changed value")
    return int(len(before) != len(after) or bool(mismatched))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
