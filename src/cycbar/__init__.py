"""Cyclic bar constructions of truncated polynomial monoids.

The package computes, exactly over the integers:

* the weight components of the cyclic bar construction of the pointed
  multiplicative monoid {0, 1, x, ..., x^(k-1)} with x^k = 0,
* their integral homology via Smith normal forms of the boundary maps,
* the closed-form relative periodic topological cyclic homology of
  F_p[x]/(x^k) relative to (x), together with nil-invariance verdicts.

See the ``cycbar`` command line tool for report generation.
"""

from . import cyclic_bar, homology, tate_tp
from .cyclic_bar import *  # noqa: F401,F403
from .homology import *  # noqa: F401,F403
from .tate_tp import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = cyclic_bar.__all__ + homology.__all__ + tate_tp.__all__
