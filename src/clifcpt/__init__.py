"""clifcpt: exact Clifford-algebra construction and discrete-symmetry
group classification.

The package builds Cl(p,q) and its complexification over exact Gaussian
rationals, constructs canonical spinor representations, derives the seven
discrete-symmetry automorphism matrices, classifies the resulting finite
groups, and labels the Pin covering structures.
"""

from .algebra import MetricSignature, Multivector
from .exact import GaussMatrix, GaussRational

__all__ = ["GaussMatrix", "GaussRational", "MetricSignature", "Multivector"]

# The verification suites in report order. Defined here so the command
# line can list them without loading clifcpt.verify.
SUITE_NAMES = ("automorphisms", "theorems", "groups", "coverings")

__version__ = "0.1.0"
