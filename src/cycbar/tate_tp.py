"""Closed-form relative periodic invariants of truncated polynomial rings.

Everything here is elementary p-adic bookkeeping around one structural
fact: the periodic topological cyclic homology of F_p[x]/(x^k) relative
to the ideal (x) splits as a product over the weights i >= 1, and the
weight-i piece contributes, in each odd degree, a cyclic group

    Z/p^(v_p(i))   when i is not a multiple of k,
    Z/p^(v_p(k))   when i is a multiple of k,

and nothing in even degrees (v_p is the p-adic valuation).  The factor
for a single weight arises as the homotopy of a Tate construction
whose value is a rank-one free module over Z/p^n[t, 1/t] with |t| = -2,
generated in degree 2d for d = floor((i-1)/k); the same d governs the
homological shape of the weight component itself: a 2d-sphere smashed
with a disjointly based circle when k does not divide i, and a single
Z/k in degree 2d+1 when it does (``homology.expected_reduced_homology``).

Nil-invariance verdicts fall out of the exponent pattern alone: some
factor is nonzero for every k >= 2, so the relative theory never
vanishes integrally, and after inverting p it vanishes exactly when the
exponents are bounded, which happens exactly when k is a power of p.
"""

from math import inf

from .cyclic_bar import _is_integer, _require_order, _Value
from .homology import ZERO_GROUP, AbelianGroup, _require_weight

__all__ = [
    "CyclicFactor",
    "NilInvariance",
    "TPReport",
    "p_adic_valuation",
    "tate_cpn_homotopy",
    "weight_piece_exponent",
    "weight_piece_tp",
    "relative_tp",
    "exponent_sup",
    "nil_invariance_report",
]

NEGATIVE_CYCLIC_REMARK = (
    "The same verdicts hold for topological negative cyclic homology: never "
    "an isomorphism integrally, an isomorphism after inverting p exactly "
    "when the truncation order is a power of p."
)


# Miller-Rabin to the first 13 prime bases is exact below PRIME_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Primality of 2 <= p < PRIME_BOUND: divide by the bases, then Miller-Rabin."""
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p):
    if not _is_integer(p) or p < 2:
        raise ValueError(f"expected a prime, got {p!r}")
    if p >= PRIME_BOUND:
        raise ValueError(f"primality is only decided below {PRIME_BOUND}, got {p}")
    if not _is_prime(p):
        raise ValueError(f"expected a prime, got composite {p}")


def _require_degree(j):
    if not _is_integer(j):
        raise ValueError(f"degree must be an integer, got {j!r}")


def p_adic_valuation(p, i):
    """Largest e with p^e dividing i; i must be a nonzero positive integer."""
    _require_prime(p)
    _require_weight(i)
    return _valuation(p, i)


def _valuation(p, n):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def tate_cpn_homotopy(p, n, j):
    """Homotopy in degree j of the C_{p^n} Tate construction of a weight piece.

    The full homotopy is a free rank-one module over Z/p^n[t, 1/t] with
    |t| = -2 and a generator in the even degree 2d, d = floor((i-1)/k).
    Whatever d is, that gives Z/p^n in every even degree and 0 in odd
    degrees.  n = 0 gives the zero module.
    """
    _require_prime(p)
    if not _is_integer(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    _require_degree(j)
    if j % 2 == 0:
        return AbelianGroup.cyclic(p**n)
    return ZERO_GROUP


def weight_piece_exponent(p, k, i):
    """Exponent e of the odd-degree factor Z/p^e contributed by weight i."""
    return weight_piece_tp(p, k, i, 1).exponent


class CyclicFactor(_Value):
    """One weight's contribution Z/p^exponent to an odd relative degree."""

    __slots__ = ("p", "weight", "exponent", "multiple_of_k")

    @property
    def is_trivial(self):
        return self.exponent == 0

    @property
    def order(self):
        return self.p**self.exponent

    @property
    def group(self):
        return AbelianGroup.cyclic(self.order)

    def __str__(self):
        return str(self.group)


def _exponent(p, k, i):
    """Exponent of weight i's odd-degree factor: v_p(i), or v_p(k) when k | i.

    The one home of the two-case rule; arguments already checked.
    """
    return _valuation(p, k if i % k == 0 else i)


def _exponent_block(p, k, start, stop):
    """The key ``(exponent, k | i)`` of each weight i in start..stop-1, by p-adic striding.

    Every key starts as ``(0, False)``; for e = 1, 2, ... while p^e < stop
    the multiples of p^e in the block are overwritten with ``(e, False)``,
    so in increasing e each weight ends at ``(v_p(i), False)``; last, the
    multiples of k get ``(v_p(k), True)``, the k | i case of the rule.
    Each write repeats one key object, so no tuple is made per weight.
    ``_exponent`` is the per-weight oracle; start >= 1, arguments checked.
    """
    n = stop - start
    row = [(0, False)] * n
    q, e = p, 1
    while q < stop:
        off = -start % q
        row[off::q] = [(e, False)] * len(range(off, n, q))
        q, e = q * p, e + 1
    off = -start % k
    row[off::k] = [(_valuation(p, k), True)] * len(range(off, n, k))
    return row


def _factor(p, k, i, j):
    """Weight i's degree-j factor, for arguments already checked."""
    return CyclicFactor(p, i, _exponent(p, k, i) if j % 2 == 1 else 0, i % k == 0)


def weight_piece_tp(p, k, i, j):
    """The degree-j contribution of weight i to the relative periodic theory.

    Odd j carries Z/p^e with e = v_p(i), or v_p(k) when k divides i
    (possibly e = 0, retained as an explicitly trivial factor); even j
    carries nothing.
    """
    _require_prime(p)
    _require_order(k)
    _require_weight(i)
    _require_degree(j)
    return _factor(p, k, i, j)


class NilInvariance(_Value):
    """Verdicts on whether killing the nilpotent variable is invisible.

    ``integral_iso`` / ``p_inverted_iso`` record whether the projection
    from the truncated ring to F_p induces an isomorphism on periodic
    topological cyclic homology integrally / after inverting p, i.e.
    whether the relative theory vanishes.  ``witness_weight`` names a
    weight whose factor is nonzero (so integral_iso is always False),
    ``exponent_sup`` the supremum of all factor exponents (math.inf when
    unbounded), and ``remark`` the transfer of the verdicts to
    topological negative cyclic homology.
    """

    __slots__ = (
        "p", "k", "integral_iso", "p_inverted_iso", "witness_weight", "witness_exponent", "exponent_sup", "remark"
    )
    _defaults = {"remark": NEGATIVE_CYCLIC_REMARK}


class TPReport(_Value):
    """A truncated factor table for one degree, plus the global verdicts.

    For odd j the true group is the product over all weights i >= 1 of
    the factor groups; the table lists i <= truncation and ``truncated``
    flags that the tail is missing (its factors follow the same two-case
    exponent rule).  For even j the group is zero and the table is
    complete and empty.
    """

    __slots__ = ("p", "k", "j", "truncation", "truncated", "factors", "verdicts")


def _require_table(p, k, j, truncation):
    """Refuse a bad (p, k, j, truncation) in a fixed order: prime, order, degree, truncation."""
    _require_prime(p)
    _require_order(k)
    _require_degree(j)
    if not _is_integer(truncation) or truncation < 1:
        raise ValueError(f"truncation must be a positive integer, got {truncation!r}")


def relative_tp(p, k, j, truncation):
    """Tabulate the degree-j relative periodic theory through weight `truncation`."""
    _require_table(p, k, j, truncation)
    if j % 2 == 1:
        factors = tuple(_factor(p, k, i, j) for i in range(1, truncation + 1))
        truncated = True
    else:
        factors = ()
        truncated = False
    return TPReport(p, k, j, truncation, truncated, factors, _nil_invariance(p, k))


def exponent_sup(p, k):
    """Supremum of the factor exponents over all weights; math.inf if unbounded.

    Writing k = p^r * m with p not dividing m: every exponent is at most
    r when m = 1 (and i = k attains it), while for m > 1 the weights
    p^(r+1), p^(r+2), ... avoid the multiples of k and have unbounded
    valuation.
    """
    _require_prime(p)
    _require_order(k)
    return _exponent_sup(p, k)


def _exponent_sup(p, k):
    """``exponent_sup`` for arguments already checked."""
    r = _valuation(p, k)
    return r if k == p**r else inf


def nil_invariance_report(p, k):
    """Decide both nil-invariance questions for the pair (p, k).

    Some odd-degree factor is always nonzero (weight k when p divides k,
    weight p otherwise, the latter never a multiple of k since then k
    would be a p-free divisor of p), so integrally the relative theory
    never vanishes.  Inverting p kills the whole product exactly when the
    exponents are bounded, i.e. exactly when k is a power of p.
    """
    _require_prime(p)
    _require_order(k)
    return _nil_invariance(p, k)


def _nil_invariance(p, k):
    """``nil_invariance_report`` for arguments already checked."""
    sup = _exponent_sup(p, k)
    witness = k if k % p == 0 else p
    return NilInvariance(
        p=p,
        k=k,
        integral_iso=False,
        p_inverted_iso=sup is not inf,
        witness_weight=witness,
        witness_exponent=_exponent(p, k, witness),
        exponent_sup=sup,
    )
