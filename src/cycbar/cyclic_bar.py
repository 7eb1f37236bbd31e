"""Cyclic bar construction of truncated polynomial monoids.

The l-simplices of the cyclic bar construction of a pointed monoid are
(l+1)-fold smash powers: an (l+1)-tuple of monoid elements, identified to
the basepoint as soon as one entry is the monoid zero.  For the truncated
monoid every nonzero element is a power of x, so a simplex is stored as
its exponent tuple (a_0, ..., a_l) with 0 <= a_j <= k-1, or the shared
``BASEPOINT`` sentinel.

Structure maps:

* ``faces(s)`` gives all faces (d_0 s, ..., d_l s) of an l-simplex in one
  call.  d_idx multiplies entries idx, idx+1; the last face wraps
  around and multiplies the final entry into the front one,
  (a_0, ..., a_l) -> (a_l + a_0, a_1, ..., a_{l-1}).  A product that
  overflows the truncation collapses the whole simplex to the basepoint.
  The faces are copied, one ``tuple`` call each, from one list whose
  merge slot slides right, with no slicing per face.
* ``degeneracies(s)`` gives all (s_0 s, ..., s_l s); s_idx inserts a unit
  (exponent 0) after position idx.  One list takes the unit in each
  place in turn and is copied there, with no slicing per degeneracy.
* ``cyclic(s)`` rotates the tuple one step to the right.

The batched forms are the one implementation: ``face(s, idx)`` and
``degeneracy(s, idx)`` check idx and return an entry of them, and the
basepoint, which has no degree, goes through these alone.  The boundary
matrices, the Morse walk and the generated closure take their faces from
``faces``, the operator the identity suite checks.

Every map either preserves the entry sum or hits the basepoint, so the
construction splits as a wedge over the total weight i.  A simplex is
degenerate exactly when some entry past position 0 is the unit; weight
i >= 1 therefore lives in degrees <= i, with the single top simplex
(0, 1, ..., 1), and weight 0 is just the unit 0-simplex.
"""

from itertools import accumulate
from operator import attrgetter

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


class _Value:
    """Base of the package's value classes: fields from ``__slots__``, defaults from ``_defaults``.

    The one constructor binds arguments to the fields by position, then by
    name, and a field given neither way takes its ``_defaults`` entry; an
    argument too many, an unknown or repeated name, or a missing field with
    no default raises ``TypeError``.  Instances are equal when of the same
    class with equal fields, hash as the field tuple, read
    ``Name(field=value, ...)``, and pickle and copy through the
    constructor.  Assigning or deleting a field raises ``AttributeError``,
    so only the constructor sets fields, with ``object.__setattr__``; a
    mutable subclass puts back ``object.__setattr__`` and
    ``object.__delattr__``, and one that checks its arguments ends its own
    ``__init__`` by calling this one.  Every subclass has at least two
    fields, which ``attrgetter`` needs to return a tuple.

    Written out rather than made by ``dataclasses``: that module imports
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, and builds each class by
    ``exec``, and every ``cycbar`` command is a fresh interpreter.  With
    seven dataclasses, ``-X importtime`` put ``import cycbar`` at ~23 ms,
    ~12.5 ms of it in ``dataclasses`` and most of the rest in building the
    classes; written out, it takes ~2.3 ms (Python 3.11, 2-vCPU Xeon).
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field names, base classes' first, also for positional patterns
        cls.__match_args__ = tuple(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())
        )
        cls._astuple = property(attrgetter(*cls.__match_args__))

    def __init__(self, *args, **kwargs):
        qualname, names = self.__class__.__qualname__, self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{qualname} takes {len(names)} fields, got {len(args)}")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{qualname} has no field {name!r}")
            if name in names[: len(args)]:
                raise TypeError(f"{qualname} got field {name!r} twice")
        values = {**self._defaults, **kwargs, **dict(zip(names, args))}
        for name in names:
            if name not in values:
                raise TypeError(f"{qualname} is missing field {name!r}")
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._astuple))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightComponent(_Value):
    """The simplices of one weight summand, listed per degree.

    ``simplices_by_degree[l]`` holds the nondegenerate l-simplices of total
    weight ``i`` in lexicographic order, for l = 0, ..., i.  Degree i is
    the last and is never empty: it holds (0, 1, ..., 1) for i >= 1, and
    (0,) for i = 0.
    """

    __slots__ = ("k", "i", "simplices_by_degree")
    _defaults = {"simplices_by_degree": ()}

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

    def faces(self, s):
        """All faces (d_0 s, ..., d_l s) of an l-simplex ``s``, l >= 1, as the module docstring defines them.

        Every entry of ``s`` is checked once per call.  The basepoint, which
        has no degree, is refused: ``face`` takes it.  The faces are copied
        from one list, ``row``, whose merge slot slides right: it starts as
        s_1, ..., s_l, and face a sets ``row[a]`` to s_a + s_{a+1}, takes
        ``tuple(row)``, or the basepoint if the sum overflows, and puts s_a
        back.  After the last merge ``row`` is s_0, ..., s_{l-1}, and the
        wrap face sets its slot 0 to s_l + s_0.
        """
        if s is BASEPOINT:
            raise ValueError("the basepoint has no degree: face(BASEPOINT, idx) is BASEPOINT")
        top = len(s) - 1
        if top < 1:
            raise ValueError("a 0-simplex has no faces")
        k = self.k
        order = sorted(s)  # faster than min and max together on tuples this short
        if order[0] < 0 or order[-1] >= k:
            raise ValueError(f"entries of {s!r} are not all exponents of Pi_{k}")
        row = list(s[1:])
        faces = []
        for a in range(top):
            row[a] = m = s[a] + s[a + 1]
            faces.append(BASEPOINT if m >= k else tuple(row))
            row[a] = s[a]
        row[0] = m = s[top] + s[0]
        faces.append(BASEPOINT if m >= k else tuple(row))
        return tuple(faces)

    def degeneracies(self, s):
        """All degeneracies (s_0 s, ..., s_l s) of an l-simplex ``s``; the basepoint is refused, as by ``faces``."""
        if s is BASEPOINT:
            raise ValueError("the basepoint has no degree: degeneracy(BASEPOINT, idx) is BASEPOINT")
        row = list(s)
        degens = []
        for b in range(1, len(s) + 1):
            row.insert(b, 0)
            degens.append(tuple(row))
            del row[b]
        return tuple(degens)

    def face(self, s, idx):
        """Face d_idx of an l-simplex, 0 <= idx <= l: entry idx of ``faces(s)``.  Basepoint in, basepoint out."""
        if s is BASEPOINT:
            return BASEPOINT
        top = len(s) - 1
        if top and not 0 <= idx <= top:
            raise ValueError(f"face index {idx} out of range for degree {top}")
        return self.faces(s)[idx]

    def degeneracy(self, s, idx):
        """Degeneracy s_idx of an l-simplex, 0 <= idx <= l: entry idx of ``degeneracies(s)``.  Basepoint in, basepoint out."""
        if s is BASEPOINT:
            return BASEPOINT
        top = len(s) - 1
        if not 0 <= idx <= top:
            raise ValueError(f"degeneracy index {idx} out of range for degree {top}")
        return self.degeneracies(s)[idx]

    def cyclic(self, s):
        """Cyclic operator: rotate the tuple one step to the right."""
        if s is BASEPOINT:
            return BASEPOINT
        return s[-1:] + s[:-1]

    def enumerate_weight_component(self, i):
        """All nondegenerate simplices of weight i, in degree-by-degree lex order.

        Degrees run up to i (weight 0 needs only degree 0).  Tuples have
        a_0 in [0, k-1] and a_j in [1, k-1] for j >= 1.  The compositions
        of each total m <= i into p parts in [1, k-1] are listed once, in
        lex order, for p = 0, 1, ..., i + 1 in turn, each from those of
        p - 1 parts; only two part counts are held at a time.  The
        l-simplices are (0,) before each composition of i into l parts,
        then the compositions of i into l + 1 parts themselves, whose
        tuples the component keeps.
        """
        _require_nonnegative_weight(i)
        hi = self.k - 1
        # comps[m]: the compositions of m into p parts, for p <= m <= min(i, p * hi)
        comps = {0: [()]}
        blocks = []
        for p in range(1, i + 2):
            below = comps
            comps = {
                m: [
                    (a,) + tail
                    for a in range(max(1, m - (p - 1) * hi), min(hi, m - p + 1) + 1)
                    for tail in below[m - a]
                ]
                for m in range(p, min(i, p * hi) + 1)
            }
            # degree p - 1: a unit before p - 1 parts, then p parts
            blocks.append(tuple([(0,) + tail for tail in below.get(i, ())] + comps.get(i, [])))
        return WeightComponent(self.k, i, tuple(blocks))

    def generated_cyclic_subset(self, i):
        """Nondegenerate simplices reachable from the weight-i generator.

        Takes the closure of the (i-1)-simplex (1, 1, ..., 1) under faces,
        degeneracies and the cyclic operator, never going above degree i,
        and reports the nondegenerate members per degree.  For the
        truncated monoid this recovers the full weight component;
        computing it by closure gives an independent route to the same
        lists.

        The walk visits nondegenerate simplices only.  From an l-simplex
        s it takes, through the operators of ``self``, the l + 1 faces,
        the rotation t(s), and t(s_l(s)) = (0, s_0, ..., s_l) when l < i,
        and keeps an image that is not the basepoint, not yet seen and
        nondegenerate.  That finds the same set as a walk through every
        degenerate simplex up to degree i:

        * faces that merge runs of ones without wrapping reach every cell
          with a_0 >= 1, a composition of i into parts in [1, k-1]; no
          merge on the way overflows, since each partial sum of a run is
          at most the part it builds;
        * t s_l of such a cell, of degree below i, reaches every cell
          with a_0 = 0;
        * every operator keeps the weight and the walk never passes
          degree i, so no other nondegenerate simplex lies in the
          closure.
        """
        if not _is_integer(i) or i < 1:
            raise ValueError(f"the generator needs weight >= 1, got {i!r}")
        start = (1,) * i
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            top = len(s) - 1
            images = [*self.faces(s)] if top else []
            images.append(self.cyclic(s))
            if top < i:
                images.append(self.cyclic(self.degeneracy(s, top)))
            for t in images:
                if t is BASEPOINT or t in seen or is_degenerate(t):
                    continue
                seen.add(t)
                stack.append(t)
        blocks = [[] for _ in range(i + 1)]
        for s in seen:
            blocks[len(s) - 1].append(s)
        return WeightComponent(self.k, i, tuple(tuple(sorted(b)) for b in blocks))


def _require_nonnegative_weight(i):
    if not _is_integer(i) or i < 0:
        raise ValueError(f"weight must be a nonnegative integer, got {i!r}")


def cell_counts(k, i):
    """The nondegenerate simplices of weight i per degree 0..i, counted, not listed.

    Equal to ``CyclicBar(k).enumerate_weight_component(i).degree_counts()``.
    An l-simplex is a_0 in [0, k-1] followed by a composition of i - a_0
    into l parts in [1, k-1], so the count in degree l is
    c_l(i) = sum over a_0 of comp(i - a_0, l, k-1).  The row
    comp(m, l, k-1) is nonzero only on the band l <= m <= l(k-1), so it
    is kept for m in [l, min(i, l(k-1))] alone, and made from the band of
    l - 1 parts by prefix sums: at most O(i) additions per degree, O(i^2)
    per weight, and O(i) per weight at k = 2.
    """
    _require_order(k)
    _require_nonnegative_weight(i)
    hi = k - 1
    row = [1]  # comp(m, 0, hi) for m in [0, 0]
    counts = []
    for l in range(i + 1):
        # row[j] = comp(l + j, l, hi)
        counts.append(sum(row[max(0, i - hi - l):]))
        n = len(row)
        acc = [0, *accumulate(row)]
        width = min(i, (l + 1) * hi) - l
        row = [acc[min(n, j + 1)] - acc[max(0, j + 1 - hi)] for j in range(width)]
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
    one ``bar.faces`` and one ``bar.degeneracies`` call each for ``s``,
    each face, each degeneracy and the rotation.  The basepoint, which has
    no degree, is mapped by ``bar.face`` and ``bar.degeneracy``; a
    degeneracy is never the basepoint, and a ``bar`` that makes one is
    refused by its own ``faces``.  A batched result whose length is not
    the degree plus one is refused with a ``ValueError`` that names the
    operator and the simplex.  Each relation is an entry of a row of
    images, read off the batches with ``zip``, set against a row of what
    they should be; a failure is reported for each index where two rows
    differ, in index order.  So the relations, their
    messages and their order are those of checking each from scratch.
    ``weight_identity_violations`` runs the same suite over a whole weight
    component and shares the images of faces between the simplices of
    that weight.

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
    their faces and degeneracies are looked up, not computed again.  Those
    of each degeneracy, one degree up, are computed through ``bar``, as
    are those of an image not kept, such as a degenerate rotation or a
    face a broken ``bar`` sends outside the weight.
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
    """The faces (none in degree 0) and the degeneracies of ``x`` as an l-simplex, through ``bar``.

    A simplex is mapped by one ``bar.faces`` and one ``bar.degeneracies``
    call, each checked by ``_row``; the basepoint, which has no degree, by
    ``bar.face`` and ``bar.degeneracy``, one index at a time.
    """
    n = l + 1
    if x is BASEPOINT:
        faces = tuple([bar.face(x, a) for a in range(n)]) if l else ()
        return faces, tuple([bar.degeneracy(x, a) for a in range(n)])
    return _row(bar.faces, x, n) if l else (), _row(bar.degeneracies, x, n)


def _row(op, x, n):
    """``op(x)``, from ``bar.faces`` or ``bar.degeneracies``, refused unless it has n images: ``zip`` would cut its rows short."""
    images = op(x)
    if len(images) != n:
        raise ValueError(f"{op.__qualname__}({x!r}) gave {len(images)} images, want {n}")
    return images


def _diff(bad, got, want, message, start=0):
    """Append ``message(a)`` to ``bad`` for each index a where the rows ``got`` and ``want`` differ, in order, counting from ``start``."""
    if got != want:
        bad.extend(message(a) for a, (x, y) in enumerate(zip(got, want), start) if x != y)


def _violations(bar, s, here, below):
    """The identity suite at a valid l-simplex ``s``.

    ``here`` maps ``s``, and maybe other l-simplices, to their images as
    ``_images`` lists them; ``below`` does the same for (l-1)-simplices.
    The images of a face or of the rotation missing from them are computed
    through ``_images``.  Those of the degeneracies, which are never kept,
    come from ``bar.faces`` and ``bar.degeneracies`` mapped over them
    directly, with no helper call per degeneracy.  If any has the wrong
    length, the degeneracies are mapped again through ``_images``, which
    refuses the first, in the order it would have met them.  Each family
    of relations is a row of images against a row of what they should be,
    checked by ``_diff``.
    """
    bad = []
    l = len(s) - 1
    t = bar.cyclic
    faces, degens = here[s]
    # the faces and the degeneracies of each face and of each degeneracy
    ff, fs = zip(*[below.get(f) or _images(bar, f, l - 1) for f in faces]) if l else ((), ())
    gf, gs = [*map(bar.faces, degens)], [*map(bar.degeneracies, degens)]
    if {*map(len, gf), *map(len, gs)} != {l + 2}:
        for g in degens:
            _images(bar, g, l + 1)

    # each row below is compared as a tuple before a message closure is
    # made for it: making one for every row costs ~5% of the suite
    if l >= 2:
        # d_a d_b for a < b is row b of ff, d_{b-1} d_a is column b - 1
        cols = list(zip(*ff))
        for b in range(1, l + 1):
            if (got := ff[b][:b]) != (want := cols[b - 1][:b]):
                _diff(bad, got, want, lambda a: f"d_{a} d_{b} != d_{b-1} d_{a} at {s}")
    # s_a s_b for a <= b is row b of gs, s_{b+1} s_a is column b + 1
    cols = list(zip(*gs))
    for b in range(l + 1):
        if (got := gs[b][: b + 1]) != (want := cols[b + 1][: b + 1]):
            _diff(bad, got, want, lambda a: f"s_{a} s_{b} != s_{b+1} s_{a} at {s}")
    # d_a s_b over a should be s_{b-1} d_a (a < b), s (a = b, b+1) and
    # s_b d_{a-1} (a > b+1), read down columns b - 1 and b of fs
    cols = [*zip(*fs), ()]
    for b, got in enumerate(gf):
        if got != (want := cols[b - 1][:b] + (s, s) + cols[b][b + 1 :]):
            _diff(bad, got, want, lambda a: f"d_{a} s_{b} relation fails at {s}")
    r = s
    for _ in range(l + 1):
        r = t(r)
    if r != s:
        bad.append(f"t^{l + 1} != id at {s}")
    ts = t(s)
    # the faces and the degeneracies of the rotation
    tf, tg = here.get(ts) or _images(bar, ts, l)
    if l >= 1:
        _diff(bad, tf[:1], faces[l:], lambda a: f"d_0 t != d_{l} at {s}")
        _diff(bad, tf[1:], tuple(map(t, faces[:l])), lambda a: f"d_{a} t != t d_{a-1} at {s}", 1)
    _diff(bad, tg[1:], tuple(map(t, degens[:l])), lambda a: f"s_{a} t != t s_{a-1} at {s}", 1)
    _diff(bad, tg[:1], (t(t(degens[l])),), lambda a: f"s_0 t != t^2 s_{l} at {s}")
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
