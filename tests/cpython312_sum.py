"""CPython 3.12's builtin ``sum``, emulated with the standard library only.

Python 3.12 made ``sum`` compensate exact floats (Neumaier's improvement of
Kahan-Babuska summation), so a float total can differ in its last bits from
3.11's left-to-right addition. ``sum312`` follows ``builtin_sum_impl`` of
Python/bltinmodule.c step by step, so the tests can run code under 3.12's
``sum`` on any interpreter by shadowing a module's ``sum`` global:

- a start that is an exact int adds exact ints and bools in a C long
  until an item is something else or the long would overflow; that item
  is then added to the int total with ``+``;
- a running total that is then an exact float adds exact floats with
  Neumaier compensation and ints that fit a C long as C doubles, without
  compensation; the compensation joins the total, if it is nonzero and
  finite, at the end or before any other item;
- everything else, numpy scalars included (a float subclass is not an
  exact float), goes through ``+`` one item at a time, as in 3.11.

Run as a script on Python 3.12 or later, it checks ``sum312`` against the
builtin on seeded lists (mixed magnitudes, ints mixed with floats, non-exact
floats, empty, inf and nan) and exits 0 when every total agrees to the bit:

    python3.12 tests/cpython312_sum.py
"""

from __future__ import annotations

import math
import random
import sys

_LONG_MIN, _LONG_MAX = -2 ** 63, 2 ** 63 - 1


def sum312(iterable, /, start=0):
    """sum(iterable, start) as CPython 3.12 computes it."""
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        total = result
        for item in items:
            if (type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX
                    and _LONG_MIN <= total + item <= _LONG_MAX):
                total += item
                continue
            result = total + item
            break
        else:
            return total
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


class _Float(float):
    """A float subclass, as numpy's float64 is: not an exact float."""


def seeded_cases(seed: int = 312) -> list[list]:
    """Lists whose builtin and emulated sums are compared, drawn from seed."""
    rng = random.Random(seed)

    def mixed(n):
        return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(n)]

    cases = [
        [],
        [0.1] * 10,
        [1e100, 1.0, -1e100],
        [-0.0, -0.0],
        [math.inf, 1.0],
        [math.inf, -math.inf],
        [1.0, math.nan, 2.0],
        [1e308, 1e308, -1e308],
        [2 ** 62, 2 ** 62, 0.5],
        [2 ** 70, 0.1, 3],
        [1, 2, 3],
        [True, 0.25, False],
    ]
    for n in (3, 9, 100, 1000):
        cases.append(mixed(n))
        cases.append([x if rng.random() < 0.7 else rng.randint(-10 ** 6, 10 ** 6)
                      for x in mixed(n)])
        cases.append([_Float(x) if rng.random() < 0.5 else x for x in mixed(n)])
    return cases


def _bits(x):
    return (type(x).__name__, x.hex() if isinstance(x, float) else repr(x))


def main() -> int:
    if sys.version_info < (3, 12):
        print(f"needs Python 3.12 or later, whose sum this emulates; "
              f"this is {sys.version.split()[0]}", file=sys.stderr)
        return 2
    cases = seeded_cases()
    starts = (0, 0.0, -0.0, 5, 2.5)
    bad = [(case, start) for case in cases for start in starts
           if _bits(sum(case, start)) != _bits(sum312(case, start))]
    for case, start in bad:
        print(f"differs at start {start!r}: {case[:6]!r}...", file=sys.stderr)
    print(f"{len(cases) * len(starts) - len(bad)} of {len(cases) * len(starts)} totals agree "
          f"with Python {sys.version.split()[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
