"""Exact q,t computer algebra for compositional shuffle identities.

Two independent pipelines compute the same polynomials: a symmetric-function
side (modified Macdonald basis, the nabla eigenoperator, creation operators
and their star-adjoints) and a parking-function side (dinv/area enumeration
with shuffle filters).  Every identity the library relies on is re-checkable
through `qtshuffle verify`.
"""

from .qtfield import QtRational
from .shapes import partition_invariants
from .symfunc import SymFunc, fundamental_expand, hall_inner, plethysm, star_inner
from .macdonald import build_htilde, c_word, check_identity, lhs_inner, nabla, op_B, op_C
from .parking import ParkingFunction, pi_poly, validate_pf

__all__ = [
    "QtRational",
    "partition_invariants",
    "SymFunc",
    "plethysm",
    "hall_inner",
    "star_inner",
    "fundamental_expand",
    "build_htilde",
    "nabla",
    "op_C",
    "op_B",
    "c_word",
    "lhs_inner",
    "check_identity",
    "ParkingFunction",
    "validate_pf",
    "pi_poly",
]

__version__ = "0.1.0"
