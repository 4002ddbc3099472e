"""Exact univariate and multivariate polynomial algebra.

core   : UniPoly / MultiPoly arithmetic, gcd and Bezout certificates,
         zero multiplicity; UniPoly products, division and gcds run on the
         F[x] kernel of fields.py
factor : complete factorization over finite fields (on the same kernel)
         and over Q, rational roots by the same modular path (the roots
         mod a good prime, lifted p-adically), and the (c, m, h, d)
         decomposition profile driving the matrix engine
sturm  : exact real root counting and strict monotonicity on the real line
"""

from .core import (
    MultiPoly,
    UniPoly,
    extended_gcd,
    gcd_poly,
    zero_multiplicity,
)
from .factor import (
    FactorProfile,
    factor_finite,
    factor_profile,
    factor_rationals,
    rational_roots,
    squarefree_decomposition,
)
from .sturm import is_strictly_monotone, sturm_real_roots

__all__ = [
    "UniPoly",
    "MultiPoly",
    "gcd_poly",
    "extended_gcd",
    "zero_multiplicity",
    "rational_roots",
    "FactorProfile",
    "factor_finite",
    "factor_rationals",
    "factor_profile",
    "squarefree_decomposition",
    "sturm_real_roots",
    "is_strictly_monotone",
]
