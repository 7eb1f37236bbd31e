"""Cyclic bar construction of truncated polynomial monoids.

The l-simplices of the cyclic bar construction of a pointed monoid are
(l+1)-fold smash powers: an (l+1)-tuple of monoid elements, identified to
the basepoint as soon as one entry is the monoid zero.  For the truncated
monoid every nonzero element is a power of x, so a simplex is stored as
its exponent tuple (a_0, ..., a_l) with 0 <= a_j <= k-1, or the shared
``BASEPOINT`` sentinel.

Structure maps:

* ``face(s, idx)`` multiplies entries idx, idx+1; the last face wraps
  around and multiplies the final entry into the front one,
  (a_0, ..., a_l) -> (a_l + a_0, a_1, ..., a_{l-1}).  A product that
  overflows the truncation collapses the whole simplex to the basepoint.
* ``degeneracy(s, idx)`` inserts a unit (exponent 0) after position idx.
* ``cyclic(s)`` rotates the tuple one step to the right.

Every map either preserves the entry sum or hits the basepoint, so the
construction splits as a wedge over the total weight i.  A simplex is
degenerate exactly when some entry past position 0 is the unit; weight
i >= 1 therefore lives in degrees <= i, with the single top simplex
(0, 1, ..., 1), and weight 0 is just the unit 0-simplex.
"""

from dataclasses import dataclass, field
from itertools import accumulate

from .monoid import BASEPOINT

__all__ = [
    "BASEPOINT",
    "CyclicBar",
    "WeightComponent",
    "cell_counts",
    "simplex_weight",
    "is_degenerate",
    "identity_violations",
    "weight_identity_violations",
    "identity_report",
]


def _is_integer(x):
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_order(k):
    if not _is_integer(k) or k < 2:
        raise ValueError(f"truncation order must be an integer >= 2, got {k!r}")


def simplex_weight(s):
    """Sum of the exponents, or None for the basepoint simplex."""
    if s is BASEPOINT:
        return None
    return sum(s)


def is_degenerate(s):
    """True when the simplex is a degeneracy, i.e. has a unit past slot 0.

    An entry a_j = 0 with j >= 1 exhibits the simplex as s_{j-1} of the
    tuple with that entry removed; conversely degeneracies only ever
    insert units after slot 0.  The basepoint counts as nondegenerate
    (it is the basepoint in every degree, not a degeneracy of anything
    interesting).
    """
    if s is BASEPOINT:
        return False
    return any(a == 0 for a in s[1:])


@dataclass(frozen=True)
class WeightComponent:
    """The simplices of one weight summand, listed per degree.

    ``simplices_by_degree[l]`` holds the nondegenerate l-simplices of total
    weight ``i`` in lexicographic order, for l = 0, ..., i.  Degree i is
    the last and is never empty: it holds (0, 1, ..., 1) for i >= 1, and
    (0,) for i = 0.
    """

    k: int
    i: int
    simplices_by_degree: tuple = field(default=())

    @property
    def top_degree(self):
        return len(self.simplices_by_degree) - 1

    def degree_counts(self):
        return [len(block) for block in self.simplices_by_degree]

    def alternating_count(self):
        """Sum of (-1)^l over all listed simplices; 0 except in weight 0."""
        return sum(
            len(block) if l % 2 == 0 else -len(block)
            for l, block in enumerate(self.simplices_by_degree)
        )

    def simplices(self):
        """Iterate pairs (degree, simplex) in degree-then-lex order."""
        for l, block in enumerate(self.simplices_by_degree):
            for s in block:
                yield l, s

    def __repr__(self):
        return (
            f"WeightComponent(k={self.k}, i={self.i}, "
            f"counts={self.degree_counts()})"
        )


class CyclicBar:
    """Cyclic bar construction of the truncated monoid with x^k = 0."""

    def __init__(self, k):
        _require_order(k)
        self.k = k

    def __repr__(self):
        return f"CyclicBar(k={self.k})"

    def face(self, s, idx):
        """Face d_idx; 0 <= idx <= l on an l-simplex with l >= 1.

        Merges two entries by exponent addition; a sum reaching k is the
        monoid zero and collapses the simplex.  Basepoint in, basepoint
        out.  A 0-simplex has no faces.
        """
        if s is BASEPOINT:
            return BASEPOINT
        top = len(s) - 1
        if top == 0:
            raise ValueError("a 0-simplex has no faces")
        if not 0 <= idx <= top:
            raise ValueError(f"face index {idx} out of range for degree {top}")
        a, b = (s[idx], s[idx + 1]) if idx < top else (s[top], s[0])
        k = self.k
        if not (0 <= a < k and 0 <= b < k):
            raise ValueError(f"entries {a!r}, {b!r} are not both exponents of Pi_{k}")
        prod = a + b
        if prod >= k:
            return BASEPOINT
        if idx < top:
            return s[:idx] + (prod,) + s[idx + 2:]
        return (prod,) + s[1:top]

    def degeneracy(self, s, idx):
        """Degeneracy s_idx: insert a unit entry after position idx."""
        if s is BASEPOINT:
            return BASEPOINT
        top = len(s) - 1
        if not 0 <= idx <= top:
            raise ValueError(f"degeneracy index {idx} out of range for degree {top}")
        return s[: idx + 1] + (0,) + s[idx + 1:]

    def cyclic(self, s):
        """Cyclic operator: rotate the tuple one step to the right."""
        if s is BASEPOINT:
            return BASEPOINT
        return s[-1:] + s[:-1]

    def enumerate_weight_component(self, i):
        """All nondegenerate simplices of weight i, in degree-by-degree lex order.

        Degrees run up to i (weight 0 needs only degree 0).  Tuples have
        a_0 in [0, k-1] and a_j in [1, k-1] for j >= 1.
        """
        _require_nonnegative_weight(i)
        hi = self.k - 1
        # leading entry may be the unit, the rest may not
        blocks = tuple(
            tuple(
                (first,) + tail
                for first in range(min(hi, i) + 1)
                for tail in _compositions(i - first, l, hi)
            )
            for l in range(i + 1)
        )
        return WeightComponent(self.k, i, blocks)

    def generated_cyclic_subset(self, i):
        """Nondegenerate simplices reachable from the weight-i generator.

        Takes the closure of the (i-1)-simplex (1, 1, ..., 1) under faces,
        degeneracies and the cyclic operator, never going above degree i,
        and reports the nondegenerate members per degree.  For the
        truncated monoid this recovers the full weight component;
        computing it by closure gives an independent route to the same
        lists.
        """
        if not _is_integer(i) or i < 1:
            raise ValueError(f"the generator needs weight >= 1, got {i!r}")
        start = (1,) * i
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            top = len(s) - 1
            images = [self.cyclic(s)]
            if top >= 1:
                images.extend(self.face(s, a) for a in range(top + 1))
            # the closure may pass through degenerate simplices one
            # degree above a target, but never above degree i
            if top < i:
                images.extend(self.degeneracy(s, a) for a in range(top + 1))
            for t in images:
                if t is BASEPOINT or t in seen:
                    continue
                seen.add(t)
                stack.append(t)
        blocks = [[] for _ in range(i + 1)]
        for s in seen:
            if not is_degenerate(s):
                blocks[len(s) - 1].append(s)
        return WeightComponent(self.k, i, tuple(tuple(sorted(b)) for b in blocks))


def _compositions(total, parts, hi):
    """Tuples of `parts` entries in [1, hi] summing to `total`, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    # remaining entries force total into [parts, parts * hi]
    lo_first = max(1, total - (parts - 1) * hi)
    hi_first = min(hi, total - (parts - 1))
    for a in range(lo_first, hi_first + 1):
        for tail in _compositions(total - a, parts - 1, hi):
            yield (a,) + tail


def _require_nonnegative_weight(i):
    if not _is_integer(i) or i < 0:
        raise ValueError(f"weight must be a nonnegative integer, got {i!r}")


def cell_counts(k, i):
    """The nondegenerate simplices of weight i per degree 0..i, counted, not listed.

    Equal to ``CyclicBar(k).enumerate_weight_component(i).degree_counts()``.
    An l-simplex is a_0 in [0, k-1] followed by a composition of i - a_0
    into l parts in [1, k-1], so the count in degree l is
    c_l(i) = sum over a_0 of comp(i - a_0, l, k-1).  The row
    comp(m, l, k-1), m = 0..i, is made from the row of l - 1 parts by
    prefix sums: O(i) additions per degree, O(i^2) per weight.
    """
    _require_order(k)
    _require_nonnegative_weight(i)
    hi = k - 1
    row = [1] + [0] * i  # comp(m, 0, hi)
    counts = []
    for _ in range(i + 1):
        counts.append(sum(row[max(0, i - hi):]))
        acc = [0, *accumulate(row)]
        row = [acc[m] - acc[max(0, m - hi)] for m in range(i + 1)]
    return counts


def _require_simplex(bar, s):
    if s is BASEPOINT:
        raise ValueError("the identity suite needs a nonbasepoint simplex, got BASEPOINT")
    if not (
        isinstance(s, tuple)
        and s
        and all(_is_integer(a) and 0 <= a < bar.k for a in s)
    ):
        raise ValueError(
            f"the identity suite needs a nonempty tuple of exponents in "
            f"[0, {bar.k - 1}], got s={s!r}"
        )


def identity_violations(bar, s):
    """Instantiate every simplicial and cyclic operator identity at ``s``.

    ``s`` is a nonbasepoint l-simplex, a nonempty tuple of exponents in
    ``[0, bar.k - 1]``; the basepoint and anything else are refused with a
    ``ValueError``.  Compositions that pass through the basepoint use the
    absorbing convention built into the operators.  With d, s, t for face,
    degeneracy, cyclic, the relations checked are

        d_a d_b = d_{b-1} d_a            (a < b, degree >= 2)
        s_a s_b = s_{b+1} s_a            (a <= b)
        d_a s_b = s_{b-1} d_a            (a < b)
        d_a s_b = id                     (a = b, a = b+1)
        d_a s_b = s_b d_{a-1}            (a > b+1)
        t^(l+1) = id
        d_0 t = d_l,   d_a t = t d_{a-1} (1 <= a <= l)
        s_0 t = t^2 s_l,  s_a t = t s_{a-1}  (1 <= a <= l)

    Each operator image is computed once, through ``bar``'s own methods:
    the faces and degeneracies of ``s``, the faces and degeneracies of
    each face and the degeneracies of each degeneracy are listed first,
    and the relations read both sides off those lists.  The relations,
    their messages and their order are those of checking each relation
    from scratch.  ``weight_identity_violations`` runs the same suite over
    a whole weight component and shares the images of faces between the
    simplices of that weight.

    Returns a list of short descriptions of failures, empty when all hold.
    """
    _require_simplex(bar, s)
    return _violations(bar, s, {s: _images(bar, s, len(s) - 1)}, {})


def weight_identity_violations(bar, wc):
    """Run the identity suite at every simplex of the weight component ``wc``.

    Returns the concatenation of ``identity_violations(bar, s)`` over the
    simplices of ``wc`` in its degree-then-lex order, and refuses the same
    simplices.  The degrees are walked in order.  The faces and
    degeneracies of every simplex of a degree, and of the basepoint in
    that degree, are computed through ``bar`` once and kept while that
    degree and the next are checked.  The faces of an l-simplex are
    (l-1)-simplices of the same weight or the basepoint, and its rotation
    is an l-simplex of the same weight unless its entry 0 is the unit, so
    their faces and degeneracies are looked up, not computed again.  An
    image not kept, such as a degenerate rotation or a face a broken
    ``bar`` sends outside the weight, is computed through ``bar``.
    """
    bad = []
    below = {}
    for l, block in enumerate(wc.simplices_by_degree):
        for s in block:
            _require_simplex(bar, s)
        here = {s: _images(bar, s, l) for s in block}
        here[BASEPOINT] = _images(bar, BASEPOINT, l)
        for s in block:
            bad += _violations(bar, s, here, below)
        below = here
    return bad


def _images(bar, x, l):
    """The faces and the degeneracies of ``x`` as an l-simplex, through ``bar``."""
    faces = [bar.face(x, a) for a in range(l + 1)] if l >= 1 else []
    return faces, [bar.degeneracy(x, b) for b in range(l + 1)]


def _violations(bar, s, here, below):
    """The identity suite at a valid l-simplex ``s``.

    ``here`` maps ``s``, and maybe other l-simplices, to their images as
    ``_images`` lists them; ``below`` does the same for (l-1)-simplices.
    The images of a face or of the rotation missing from them are
    computed through ``bar``.
    """
    bad = []
    l = len(s) - 1
    d, sg, t = bar.face, bar.degeneracy, bar.cyclic
    faces, degens = here[s]
    # the faces and the degeneracies of each face
    ff, fs = [], []
    for f in faces:
        f_faces, f_degens = below.get(f) or _images(bar, f, l - 1)
        ff.append(f_faces)
        fs.append(f_degens)

    if l >= 2:
        for b in range(1, l + 1):
            for a in range(b):
                if ff[b][a] != ff[a][b - 1]:
                    bad.append(f"d_{a} d_{b} != d_{b-1} d_{a} at {s}")
    ss = [[sg(g, a) for a in range(l + 2)] for g in degens]
    for b in range(l + 1):
        for a in range(b + 1):
            if ss[b][a] != ss[a][b + 1]:
                bad.append(f"s_{a} s_{b} != s_{b+1} s_{a} at {s}")
    for b, sb in enumerate(degens):
        for a in range(l + 2):
            if a < b:
                want = fs[a][b - 1]
            elif a in (b, b + 1):
                want = s
            else:
                want = fs[a - 1][b]
            if d(sb, a) != want:
                bad.append(f"d_{a} s_{b} relation fails at {s}")
    r = s
    for _ in range(l + 1):
        r = t(r)
    if r != s:
        bad.append(f"t^{l + 1} != id at {s}")
    ts = t(s)
    # the faces and the degeneracies of the rotation
    tf, tg = here.get(ts) or _images(bar, ts, l)
    if l >= 1:
        if tf[0] != faces[l]:
            bad.append(f"d_0 t != d_{l} at {s}")
        for a in range(1, l + 1):
            if tf[a] != t(faces[a - 1]):
                bad.append(f"d_{a} t != t d_{a-1} at {s}")
    for a in range(1, l + 1):
        if tg[a] != t(degens[a - 1]):
            bad.append(f"s_{a} t != t s_{a-1} at {s}")
    if tg[0] != t(t(degens[l])):
        bad.append(f"s_0 t != t^2 s_{l} at {s}")
    return bad


def identity_report(k, max_weight):
    """Run the identity suite over every simplex of weight <= max_weight.

    Each weight component is checked by ``weight_identity_violations``,
    which shares the images of faces between the simplices of one weight.
    ``max_weight`` must be a nonnegative integer.

    Returns (simplices_checked, violations); an empty violation list means
    the operators satisfy all simplicial and cyclic relations on that range.
    """
    bar = CyclicBar(k)
    if not _is_integer(max_weight) or max_weight < 0:
        raise ValueError(f"max_weight must be a nonnegative integer, got {max_weight!r}")
    checked = 0
    violations = []
    for i in range(max_weight + 1):
        wc = bar.enumerate_weight_component(i)
        checked += sum(wc.degree_counts())
        violations += weight_identity_violations(bar, wc)
    return checked, violations
