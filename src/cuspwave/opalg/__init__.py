"""Exact operator algebra in (t, x1..xn) with square-root generators
h = t^(1/2) and r = |x| (the latter for n >= 2), and the symbolic
identity catalog."""

from .coeff import CoeffContext, CoeffExpr
from .diffop import DiffOp, commutator, compose
from .catalog import catalog_verify, certificate_text, CatalogRow

__all__ = [
    "CoeffContext", "CoeffExpr", "DiffOp", "commutator", "compose",
    "catalog_verify", "certificate_text", "CatalogRow",
]
