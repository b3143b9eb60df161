"""Exact enumeration of small-step lattice walks confined to cones.

The package counts walks with exact big-integer dynamic programming
(``walks``), reads structured series (boundary pieces, orbit-sum
corrections) off the oracle (``decompose``), and verifies closed-form
counts, algebraic parametrizations and functional-equation identities
order by order in the length variable (``engine``, ``identities``).
Importing the package loads none of its modules: each command of ``cli``
imports what it runs, so ``param`` never compiles the walk oracle.
"""

__version__ = "0.1.0"
