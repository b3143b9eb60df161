"""Independent reference computations for checking conewalks outputs.

Nothing here imports ``conewalks``: the walk counts come from a separate
integer dynamic program, and the parametrizing series are checked by
plugging them into their defining equations with plain ``int`` and
``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

STEPS = {
    "square": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "diagonal": ((1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def three_quadrant_totals(lattice: str, start: tuple, n_max: int) -> list:
    """Number of walks of length 0..n_max that start at ``start`` and never
    enter the open negative quadrant {i < 0 and j < 0}."""
    steps = STEPS[lattice]
    frontier = {start: 1}
    totals = [1]
    for _ in range(n_max):
        nxt = {}
        for (i, j), c in frontier.items():
            for di, dj in steps:
                p = (i + di, j + dj)
                if p[0] >= 0 or p[1] >= 0:
                    nxt[p] = nxt.get(p, 0) + c
        frontier = nxt
        totals.append(sum(frontier.values()))
    return totals


# Truncated series in t whose coefficients are polynomials in x, stored
# as a list (index = power of t) of dicts {power of x: coefficient}.


def parse_coeffs(rows) -> list:
    """Coefficients as emitted by ``conewalks param --format json``."""
    return [{int(e): Fraction(c) for e, c in row.items()} for row in rows]


def const(c, n: int) -> list:
    return [{0: Fraction(c)}] + [{} for _ in range(n - 1)]


def add(*series) -> list:
    n = min(len(s) for s in series)
    out = [{} for _ in range(n)]
    for s in series:
        for k in range(n):
            for e, c in s[k].items():
                out[k][e] = out[k].get(e, 0) + c
    return out


def scale(s: list, c, t_shift: int = 0, x_shift: int = 0) -> list:
    """c * t^t_shift * x^x_shift * s, truncated to the order of s."""
    n = len(s)
    out = [{} for _ in range(n)]
    for k in range(n - t_shift):
        out[k + t_shift] = {e + x_shift: c * v for e, v in s[k].items()}
    return out


def mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [{} for _ in range(n)]
    for i in range(n):
        if not a[i]:
            continue
        for j in range(n - i):
            acc = out[i + j]
            for e1, c1 in a[i].items():
                for e2, c2 in b[j].items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return out


def is_zero(s: list) -> bool:
    return all(c == 0 for row in s for c in row.values())


def t_residual(T: list) -> list:
    """T (T+3)^3 - (T+3)^3 - 256 t^2 T^3."""
    n = len(T)
    T3 = add(T, const(3, n))
    cube = mul(mul(T3, T3), T3)
    return add(mul(T, cube), scale(cube, -1),
               scale(mul(mul(T, T), T), -256, t_shift=2))


def u_residual(U: list, T: list) -> list:
    """16 T^2 (U^2 - T) - x (U + UT - 2T)(U^2 - 9T + 8TU + T^2 - T U^2)."""
    n = len(U)
    T = T[:n]
    U2, TT, TU = mul(U, U), mul(T, T), mul(T, U)
    left = scale(mul(TT, add(U2, scale(T, -1))), 16)
    first = add(U, TU, scale(T, -2))
    second = add(U2, scale(T, -9), scale(TU, 8), TT, scale(mul(T, U2), -1))
    return add(left, scale(mul(first, second), -1, x_shift=1))
