"""Check that a float report writes an exact report's numbers, each
rounded once.

    python3 tools/rounded_compare.py FLOAT EXACT [KEYS [COUNT]]

Reads one value from each JSON report by the dot-separated key path KEYS
(``results`` by default) and exits 0 iff the float report's value equals
the exact report's with every exact number replaced by the float nearest
to it, and, given COUNT, the value holds COUNT items.  An exact number is
a string that ends in a digit (``"3"``, ``"-1/7"``); every other value
must be equal as it stands.  Standard library only.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction


def rounded(v):
    """v with each exact number, at any depth, rounded once to a float."""
    if isinstance(v, list):
        return [rounded(e) for e in v]
    if isinstance(v, dict):
        return {k: rounded(e) for k, e in v.items()}
    if isinstance(v, str) and v[-1:].isdigit():
        return float(Fraction(v))
    return v


def read(path: str, keys: list[str]):
    with open(path) as f:
        value = json.load(f)
    for key in keys:
        value = value[key]
    return value


def main(float_report, exact_report, path="results", count=None) -> int:
    keys = path.split(".")
    got = read(float_report, keys)
    if got != rounded(read(exact_report, keys)):
        print(f"{float_report}: {path} differs from the exact report's, "
              "rounded once", file=sys.stderr)
        return 1
    if count is not None and len(got) != int(count):
        print(f"{float_report}: {path} holds {len(got)} items, not {count}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if not 3 <= len(sys.argv) <= 5:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
