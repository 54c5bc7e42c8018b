"""Fixed reference job: the benchmark's measure of how fast the host runs right now.

    python3 -I perfbench/yardstick.py

A fresh interpreter imports the standard-library modules that param_atlas
imports, then multiplies sparse Laurent-style polynomials (dicts keyed by
exponent tuples, Fraction coefficients), the kind of work the program's hot
paths do.  It touches nothing of the program, and `-I` keeps PYTHONPATH and
other environment settings out, so no change to `src/` can move its time.

run.py runs this twice before and twice after every measured job and scales
the job's time by YARDSTICK_S / (the mean yardstick time).  The host this
runs on is shared, and its pace drifts by ±20 % over seconds to minutes;
interpreter start-up, import and dict-heavy work slow down together, so the
ratio keeps what the program itself changes and drops much of what the host
does.

Prints one line: the checksum of the product, which run.py checks.
"""

import argparse  # noqa: F401  -- imported for its import cost, like the CLI's
import dataclasses  # noqa: F401
import hashlib
import itertools  # noqa: F401
import json
import random  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction

ROUNDS = 2
CHECKSUM = "324e571c2685322e"


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def main() -> str:
    base = {(i % 5 - 2, (i * 3) % 7 - 3, (i * 5) % 3 - 1): Fraction(i % 7 - 3 or 1, 1 + i % 4)
            for i in range(60)}
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(ROUNDS):
        acc = mul(acc, base)
    text = json.dumps(sorted((k, str(v)) for k, v in acc.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    print(main())
