#!/usr/bin/env python3
"""The benchmark's yardstick: a fixed pure-Python computation.

``run.py`` runs it in a fresh interpreter between the repetitions of a
workload and divides the workload's times by its times.  It imports
nothing from ``conewalks``, so no change to the program moves it, and it
does the kinds of work the program does (an integer walk DP over a dict
of lattice points, products of series with ``Fraction`` coefficients),
so that a busy machine slows both alike.  It prints two checksums.

    python3 perfbench/yardstick.py
"""

from fractions import Fraction

import reference


def main() -> None:
    totals = reference.three_quadrant_totals("diagonal", (0, 0), 80)
    series = [{0: Fraction(1, k + 2), 1: Fraction(k, 3)} for k in range(140)]
    square = reference.mul(series, series)
    print(totals[-1], sum(square[-1].values()))


if __name__ == "__main__":
    main()
