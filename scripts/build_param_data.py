"""Regenerate src/conewalks/data/parametrizations.json.

The catalog stores, as expanded term lists, the rational expressions in
the parametrizing series z (with z^2 abbreviated T below), u, v and the
formal variable x that the verification engine compares against the walk
oracle.  Keeping the data as plain JSON keeps sympy out of the runtime
dependencies; this script is only needed when the catalog changes.
"""

import json
import os

import sympy as sp

z, u, v, x = sp.symbols("z u v x")
T = z**2

SYMS = ("z", "u", "v", "x")


def terms(expr):
    poly = sp.Poly(sp.expand(expr), z, u, v, x)
    out = []
    for monom, coeff in sorted(poly.terms()):
        if not coeff.is_Integer:
            raise ValueError(f"non-integer coefficient {coeff}")
        exps = {s: e for s, e in zip(SYMS, monom) if e}
        out.append([int(coeff), exps])
    return out


# -- building blocks -------------------------------------------------------

# square lattice, start (0,0): numerator of the x-axis boundary series
N1_SQ = (
    -((z**2 + 1) ** 2) * (z + 1) ** 3 * (z - 1) ** 4 * u**8
    - 2 * z * (z**2 + 1) * (z**4 - 10 * z**3 - 14 * z - 1)
    * (z + 1) ** 2 * (z - 1) ** 3 * u**7
    + 4 * z**2 * (z + 1)
    * (10 * z**7 - 35 * z**6 + 14 * z**5 - 115 * z**4 - 10 * z**3
       - 57 * z**2 - 14 * z + 15)
    * (z - 1) ** 2 * u**6
    + 2 * z**3 * (z - 1)
    * (z**10 + 14 * z**9 - 77 * z**8 + 252 * z**7 - 66 * z**6
       + 1224 * z**5 + 106 * z**4 + 68 * z**3 + 33 * z**2 - 534 * z + 3)
    * u**5
    + 2 * z**4 * (z - 1)
    * (z**10 + 8 * z**9 - 115 * z**8 - 400 * z**7 - 1154 * z**6
       - 1728 * z**5 - 5890 * z**4 - 1520 * z**3 - 2607 * z**2
       - 456 * z + 549)
    * u**4
    + 2 * z**5
    * (z**11 - 11 * z**10 - 207 * z**9 + 149 * z**8 + 2946 * z**7
       + 2202 * z**6 + 8506 * z**5 + 9266 * z**4 - 5571 * z**3
       + 4017 * z**2 - 3627 * z - 1287)
    * u**3
    - 4 * z**6
    * (14 * z**10 - z**9 - 465 * z**8 - 684 * z**7 + 3704 * z**6
       + 2034 * z**5 + 11274 * z**4 + 6756 * z**3 - 702 * z**2
       + 3159 * z - 513)
    * u**2
    - 2 * z**7
    * (z**11 + 13 * z**10 - 115 * z**9 - 95 * z**8 + 1346 * z**7
       + 3722 * z**6 - 8334 * z**5 - 4470 * z**4 - 24291 * z**3
       - 12663 * z**2 - 351 * z - 3915)
    * u
    - z**8
    * (z**11 - z**10 - 37 * z**9 + 293 * z**8 + 382 * z**7 - 894 * z**6
       - 4614 * z**5 + 7686 * z**4 + 5409 * z**3 + 17631 * z**2
       + 9099 * z - 2187)
)


def n2_sq(tt):
    return (
        tt**5
        + (-2 * u**2 + 32 * u - 73) * tt**4
        + (u**4 - 16 * u**3 + 90 * u**2 - 96 * u - 177) * tt**3
        + (-(u**4) + 82 * u**2 - 192 * u - 135) * tt**2
        - u**2 * (u**2 - 16 * u + 42) * tt
        + u**4
    )


def d2_sq(tt):
    return (
        -(tt**4)
        + 2 * (u - 2) * (u - 6) * tt**3
        - (u - 3) * (u**3 + 3 * u**2 - 15 * u + 3) * tt**2
        + 6 * tt * u**2
        + u**4
    )


# same quartic as d2_sq, rewritten for the shifted walk expressions
D_SQ_ASYM = (
    z**8
    - 2 * (u - 2) * (u - 6) * z**6
    + (u - 3) * (u**3 + 3 * u**2 - 15 * u + 3) * z**4
    - 6 * u**2 * z**2
    - u**4
)

N_DIAG = (
    -(z**2 + 3) * (z - 1) ** 2 * v**3
    + (z - 1) * (3 * z**3 + 9 * z**2 + z + 11) * v**2
    + (z + 1) * (3 * z**3 - 9 * z**2 + z - 11) * v
    - (z**2 + 3) * (z + 1) ** 2
)

# shared quadratic denominator for the diagonal axis series
DD = (
    T**2 * v**2 - 2 * T**2 * v + 2 * T * v**2 + T**2 - 3 * v**2
    + 2 * T - 6 * v - 3
)

N1_DIAG_ASYM = (
    -(z**2 + 3) * (z - 1) ** 2 * v**3
    + 4 * (z + 2) * (z - 1) * v**2
    + 4 * (z + 1) * (z - 2) * v
    - (z**2 + 3) * (z + 1) ** 2
)

N2_DIAG_ASYM = (
    (z**2 + 3) * (z - 1) ** 2 * v**3
    + (3 * z**2 + 12 * z + 5) * (z - 1) ** 2 * v**2
    + (3 * z**2 - 12 * z + 5) * (z + 1) ** 2 * v
    + (z**2 + 3) * (z + 1) ** 2
)

N1_SQ_ASYM = (
    z**4 + 2 * (u - 3) * z**3 + (u + 1) * (u - 3) * z**2 - u**2
)

N2_SQ_ASYM = (
    (z + 1) * (z - 1) ** 2 * u**2
    - 4 * z * (3 * z + 1) * (z - 1) * u
    - z**2 * (z**3 + 3 * z**2 - 25 * z - 11)
)

BIVARIATE = {
    "sq-origin-axis-x": {
        "anchor": "square lattice from (0,0): x-axis boundary series, "
                  "x scaled by t",
        "num": N1_SQ,
        "den": 3 * T * (z - 1) * (T + 3) ** 3 * (u + z) ** 2
        * (u**2 - 9 * T + 8 * T * u + T**2 - T * u**2) ** 2,
    },
    "sq-origin-axis-y": {
        "anchor": "square lattice from (0,0): y-axis boundary series, "
                  "x scaled by t",
        "num": (T * u - 2 * T + u) ** 2 * n2_sq(T),
        "den": T * (T + 3) ** 3 * d2_sq(T),
    },
    "diag-origin-axis-x": {
        "anchor": "diagonal lattice from (0,0): x-axis boundary series "
                  "in the squared variable",
        "num": v * (v * T - T - v - 3) * N_DIAG,
        "den": 48 * z**3 * (v + 1) ** 2 * (v * z - v - z - 1) ** 2,
    },
    "diag-origin-axis-y": {
        "anchor": "diagonal lattice from (0,0): y-axis boundary series "
                  "in the squared variable",
        "num": (T * v - T + 3 * v + 1)
        * (-T * v**2 - 2 * T * v + v**2 + T + 2 * v + 3),
        "den": 2 * (v + 1) * DD,
    },
    "sq-shift-left-axis-x": {
        "anchor": "square lattice from (-1,0): left part on the x-axis, "
                  "x scaled by t",
        "num": 256 * z**4 * (u * z**2 - 2 * z**2 + u),
        "den": (u * z + z**2 + u - 3 * z) * (u + z) * (z - 1)
        * (z**2 + 3) ** 3,
    },
    "sq-shift-left-axis-y": {
        "anchor": "square lattice from (-1,0): left part on the y-axis "
                  "times x, x scaled by t",
        "num": 256 * z**6 * (u - z) * (u * z - z**2 - u - 3 * z)
        * (u**2 * z**2 - z**4 - 4 * u * z**2 + u**2 + 3 * z**2),
        "den": D_SQ_ASYM * (z - 1) * (z**2 + 3) ** 3,
    },
    "sq-shift-below-axis-x": {
        "anchor": "square lattice from (-1,0): below part on the x-axis "
                  "times x, x scaled by t",
        "num": 512 * z**6 * (u * z**2 - 2 * z**2 + u) * (u - z)
        * N1_SQ_ASYM,
        "den": (1 - z**2) * (z**2 + 3) ** 3 * D_SQ_ASYM,
    },
    "sq-shift-below-axis-y": {
        "anchor": "square lattice from (-1,0): below part on the y-axis, "
                  "x scaled by t",
        "num": 16 * z**2 * (u * z**2 - 2 * z**2 + u) * N2_SQ_ASYM,
        "den": (u + z) * (1 - z**2) * (z**2 + 3) ** 3
        * (u * z - z**2 - u - 3 * z),
    },
    "diag-shift-left-axis-x": {
        "anchor": "diagonal lattice from (-2,0): left part on the x-axis "
                  "in the squared variable",
        "num": 32 * v * z**3 * (v * T - T - v - 3) * N1_DIAG_ASYM,
        "den": 3 * (1 + v) ** 2 * (T - 1) * (T + 3) ** 3
        * (v * z - v - z - 1) ** 2,
    },
    "diag-shift-left-axis-y": {
        "anchor": "diagonal lattice from (-2,0): left part on the y-axis "
                  "in the squared variable",
        "num": (T * v - T + 3 * v + 1) * (v - 1) * (T * v - T - v - 3),
        "den": 2 * (v + 1) * DD,
    },
    "diag-shift-below-axis-x": {
        "anchor": "diagonal lattice from (-2,0): below part on the x-axis "
                  "in the squared variable",
        "num": v * (T * v - T + 3 * v + 1) * (2 - T * v + v),
        "den": (v + 1) * DD,
    },
    "diag-shift-below-axis-y": {
        "anchor": "diagonal lattice from (-2,0): below part on the y-axis "
                  "in the squared variable",
        "num": 16 * v * z**3 * (v * T - T - v - 3) * N2_DIAG_ASYM,
        "den": 3 * (v + 1) ** 2 * (T - 1) * (T + 3) ** 3
        * (v * z - v - z - 1) ** 2,
    },
}

# endpoint series and one-variable constants, rational in z
GZ = 4 + 4 * z - 4 * z**2 + 23 * z**3 - 9 * z**4 + 18 * z**5 \
    - 6 * z**6 + 3 * z**7 - z**8

Z_RATIONALS = {
    "sq-origin-end-m1-0": {
        "anchor": "square (0,0): t * [walks to (-1,0)]",
        "num": (z**2 - 1) * (11 + 6 * z**2 - z**4),
        "den": (z**2 + 3) ** 3,
    },
    "sq-origin-end-m1-1": {
        "anchor": "square (0,0): walks to (-1,1)",
        "num": 1024 * z**3 * (z**2 + 1) ** 2 * (z - 1)
        * (1 + 2 * z - z**2),
        "den": (z**2 + 3) ** 6 * (z + 1),
    },
    "sq-origin-end-m2-0": {
        "anchor": "square (0,0): walks to (-2,0) plus third of the "
                  "quadrant origin series",
        "num": 256 * z**3 * GZ,
        "den": 3 * (z**2 + 3) ** 6 * (z + 1),
    },
    "sq-origin-end-0-0": {
        "anchor": "square (0,0): walks to (0,0) minus third of the "
                  "quadrant origin series",
        "num": 512 * z**3 * GZ,
        "den": 3 * (z**2 + 3) ** 6 * (z + 1),
    },
    "sq-origin-m01": {
        "anchor": "square (0,0): t^2 times x^0 y^1 coefficient of the "
                  "mixed-part series",
        "num": 4 * (z - 1) ** 2 * (z**2 + 1) ** 2 * (1 + 2 * z - z**2),
        "den": z**3 * (3 + z**2) ** 3,
    },
    "diag-origin-end-m1-1": {
        "anchor": "diagonal (0,0): t * [walks to (-1,1)]",
        "num": (T - 1) * (11 + 6 * T - T**2),
        "den": (T + 3) ** 3,
    },
    "diag-origin-end-m2-0": {
        "anchor": "diagonal (0,0): walks to (-2,0) plus third of the "
                  "quadrant origin series",
        "num": 32 * z**3 * (1 + z + 3 * z**2 - z**3),
        "den": 3 * (z + 1) * (z**2 + 3) ** 3,
    },
    "diag-origin-end-0-0": {
        "anchor": "diagonal (0,0): walks to (0,0) minus third of the "
                  "quadrant origin series",
        "num": 64 * z**3 * (1 + z + 3 * z**2 - z**3),
        "den": 3 * (z + 1) * (z**2 + 3) ** 3,
    },
    "sq-shift-end-0-0": {
        "anchor": "square (-1,0): t * [walks to (0,0)]",
        "num": -(T - 1) * (T**2 - 6 * T - 11),
        "den": (T + 3) ** 3,
    },
    "sq-shift-end-m2-0": {
        "anchor": "square (-1,0): t * [walks to (-2,0)]",
        "num": 16 * (T - 1),
        "den": (T + 3) ** 3,
    },
    "sq-shift-end-0-m2": {
        "anchor": "square (-1,0): t * [walks to (0,-2)]",
        "num": (T - 1) ** 2 * (5 - T),
        "den": (T + 3) ** 3,
    },
    "sq-shift-end-m1-0": {
        "anchor": "square (-1,0): walks to (-1,0)",
        "num": 64 * z**3,
        "den": (z**2 + 3) ** 3,
    },
    "sq-shift-end-m1-1": {
        "anchor": "square (-1,0): t * [walks to (-1,1)]",
        "num": -16 * z**2 * (z - 1) * (z - 3),
        "den": (z**2 + 3) ** 3,
    },
    "sq-shift-end-0-m1": {
        "anchor": "square (-1,0): walks to (0,-1)",
        "num": -32 * z**3 * (z - 1) * (z**2 - 2 * z - 1),
        "den": (z + 1) * (z**2 + 3) ** 3,
    },
    "diag-shift-end-m1-1": {
        "anchor": "diagonal (-2,0): t * [walks to (-1,1)]",
        "num": 16 * (T - 1),
        "den": (T + 3) ** 3,
    },
    "diag-shift-end-m1-3": {
        "anchor": "diagonal (-2,0): t * [walks to (-1,3)]",
        "num": 64 * (T - 1) ** 2 * (T + 1) * (7 - T),
        "den": (T + 3) ** 6,
    },
    "diag-shift-end-m2-0": {
        "anchor": "diagonal (-2,0): walks to (-2,0) minus third of the "
                  "quadrant origin series",
        "num": 32 * z**3 * (5 + 5 * z - 3 * z**2 + z**3),
        "den": 3 * (z + 1) * (z**2 + 3) ** 3,
    },
    "diag-shift-end-0-0": {
        "anchor": "diagonal (-2,0): walks to (0,0) plus third of the "
                  "quadrant origin series",
        "num": 32 * z**3 * (1 + z + 3 * z**2 - z**3),
        "den": 3 * (z + 1) * (z**2 + 3) ** 3,
    },
    "diag-shift-end-0-m2": {
        "anchor": "diagonal (-2,0): walks to (0,-2) minus third of the "
                  "quadrant origin series",
        "num": -64 * z**3 * (2 + 2 * z - 3 * z**2 + z**3),
        "den": 3 * (z + 1) * (z**2 + 3) ** 3,
    },
    "diag-shift-end-1-m1": {
        "anchor": "diagonal (-2,0): t * [walks to (1,-1)]",
        "num": (T - 1) ** 2 * (5 - T),
        "den": (T + 3) ** 3,
    },
    "sq-S1": {
        "anchor": "square (0,0): first boundary coefficient series",
        "num": (T - 1) * (11 + 6 * T - T**2),
        "den": (T + 3) ** 3,
    },
    "sq-P0": {
        "anchor": "square (0,0): central coefficient of the squared "
                  "boundary relation",
        "num": (T - 1) ** 2
        * (41 + 331 * T + 106 * T**2 + 38 * T**3 - 3 * T**4 - T**5),
        "den": 128 * T**3 * (T + 3) ** 3,
    },
    "diag-S1": {
        "anchor": "diagonal (0,0): first boundary coefficient series",
        "num": (T - 1) * (11 + 6 * T - T**2),
        "den": (T + 3) ** 3,
    },
    "diag-F0": {
        "anchor": "diagonal (0,0): combined boundary constant",
        "num": (1 - T) * (3 * T**3 - 29 * T**2 - 15 * T + 9),
        "den": 128 * T**3,
    },
    "diag-R0": {
        "anchor": "diagonal (0,0): constant coefficient of the x-axis "
                  "boundary series",
        "num": (z - 1) * (-(z**3) + 3 * z**2 + z + 1),
        "den": 24 * z**3,
    },
    "diag-shift-S1": {
        "anchor": "diagonal (-2,0), antisymmetric part: first boundary "
                  "coefficient series",
        "num": (T - 1) * (21 - 6 * T + T**2),
        "den": (T + 3) ** 3,
    },
    "diag-shift-F0": {
        "anchor": "diagonal (-2,0), antisymmetric part: combined "
                  "boundary constant",
        "num": (T - 1) * (5 * T**3 - 11 * T**2 + 135 * T - 33),
        "den": 128 * T**3,
    },
}


def build() -> str:
    """The text of parametrizations.json."""
    data = {
        "symbols": list(SYMS),
        "bivariate": {
            key: {
                "anchor": e["anchor"],
                "num": terms(e["num"]),
                "den": terms(e["den"]),
            }
            for key, e in BIVARIATE.items()
        },
        "z_rationals": {
            key: {
                "anchor": e["anchor"],
                "num": terms(e["num"]),
                "den": terms(e["den"]),
            }
            for key, e in Z_RATIONALS.items()
        },
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    dest = os.path.join(
        here, "..", "src", "conewalks", "data", "parametrizations.json"
    )
    with open(dest, "w") as fh:
        fh.write(build())
    print("wrote", os.path.normpath(dest))


if __name__ == "__main__":
    main()
