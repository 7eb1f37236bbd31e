"""The basepoint of the truncated polynomial monoid Pi_k.

Pi_k is the multiplicative pointed monoid {0, 1, x, ..., x^(k-1)} with
x^k = 0.  Its nonzero elements are stored as their exponents (0 for the
unit), so the product of two of them is exponent addition and the weight
of an element is the element itself; a sum reaching k is the monoid zero,
represented by the shared ``BASEPOINT`` sentinel.  ``CyclicBar.faces``
carries out the product.
"""

__all__ = ["BASEPOINT"]


class _Basepoint:
    """The absorbing basepoint, shared by monoid elements and simplices."""

    __slots__ = ()

    def __repr__(self):
        return "BASEPOINT"

    def __reduce__(self):
        # keep identity across pickling, for library users who pickle
        # simplices; the CLI's --jobs workers send plain data, never BASEPOINT
        return (_restore_basepoint, ())


BASEPOINT = _Basepoint()


def _restore_basepoint():
    return BASEPOINT
