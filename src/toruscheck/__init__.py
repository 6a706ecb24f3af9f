"""Exact integer and root-of-unity arithmetic for finite-level verification
of cohomological pairings, projective character theory, and the
disconnected-torus endoscopic character identities.

Everything is computed exactly: lattices over Z via Smith normal form,
characters as cyclotomic integers, pairings as elements of Q/Z.
"""

from .lattice import IntMatrix, smith_normal_form, solve_integer, FGAbelian
from .qz import QZ, Cyc

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "solve_integer",
    "FGAbelian",
    "QZ",
    "Cyc",
]
