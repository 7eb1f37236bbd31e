"""Integral chain complexes of weight components and their homology.

The normalized reduced chains of a weight component have one free
generator per nondegenerate simplex, with the basepoint discarded.  The
boundary of an l-simplex is the alternating sum of its faces; faces that
hit the basepoint contribute nothing.  No face is degenerate: merging two
entries of a nondegenerate tuple yields an entry that is either >= 1 or
overflows to the basepoint, so every other face is a basis element.

The closed form checked against lives here too, at every weight i >= 1
(``expected_reduced_homology``; Hesselholt and Madsen, Invent. Math.
1997).

Homology is read off Smith normal forms of the boundary matrices, in
two stages (Dumas, Heckenbach, Saunders and Welker, "Computing simplicial
homology based on efficient Smith normal form algorithms", 2003).  All
arithmetic is exact over arbitrary-precision integers.  Boundary matrices
are kept column by column, as ``SparseColumns``: three tuples of ints.
First, +-1 pivots are eliminated on sparse rows built from the columns,
sparsest column first; each contributes an
invariant factor 1 and removes one row and one column.  Only the small
residual left without unit entries is densified, for a diagonalization
that picks pivots of minimal absolute value and clears their rows and
columns by division with remainder; a remainder becomes the next pivot,
so the gcd is reached without extended-gcd cofactors.  Before a pivot is
kept, a row holding an entry it does not divide is added to its row, so
every pivot divides all later ones and no final pass fixes the diagonal.

``morse_homology`` reaches the same groups without listing the complex,
through an acyclic matching that leaves two critical cells per weight
(algebraic discrete Morse theory: Skoldberg, Trans. AMS 2006;
Joellenbeck and Welker, Mem. AMS 2009).  Scan the tail of an l-simplex
s = (a_0, a_1, ..., a_l) from t = 1, with q counting the pairs (1, k-1)
passed:

* t > l, or a_t = 1 with t = l: s is critical;
* a_t >= 2: s is a lower cell, matched with u, which is s with a_t split
  into (1, a_t - 1);
* a_t = 1 and a_{t+1} <= k-2: s is an upper cell, matched with d_t(s);
* a_t = 1 and a_{t+1} = k-1: step t by 2 and q by 1, and scan on.

The critical cells are (a_0, (1, k-1)^j) with i - a_0 = jk and
(a_0, (1, k-1)^j, 1) with i - a_0 = jk + 1: one each for i >= 1, in
degrees 2d and 2d+1 when k does not divide i and 2d+1 and 2d+2 when it
does, with d = (i-1) // k.  Why the matching is valid, one local step at
a time in (a_t, a_{t+1}), so once for all weights:

* The partners of a pair share the scanned prefix (a_0, (1, k-1)^q), and
  the rule sends each to the other: in u, a_t is followed by
  a_t - 1 <= k-2.
* Only d_t of u is s, so the incidence [du : s] is (-1)^t, a unit.  The
  other faces of u either overflow to the basepoint (the faces inside
  the (1, k-1) prefix or at its end), raise a_0 (d_0 and d_l), or keep a
  1 at position t: d_{t+1} leaves (1, a_t - 1 + a_{t+1}), which is an
  upper cell, a critical cell, or a scan that passes one more pair, and
  every later face leaves (1, a_t - 1), an upper cell.
* So along a gradient path s -> u -> s' the key (a_0, q) strictly rises,
  and the matching is acyclic.

The Morse differential from the high critical cell to the low one is
read off one depth-first walk of the gradient paths from the high cell,
on a stack of (partner, +-1, skipped face): a lower face is pushed at
once as its partner, an upper face is dropped, since no path leaves it,
and a face on the low cell, the only critical cell in its degree, adds
its +-1.  The flow is linear, so any order gives the same coefficient,
and the matching is acyclic, so every path ends.  It is 0 when k does
not divide i and +-k when it does.  ``morse_homology`` refuses a walk
past ``MORSE_FLOW_BUDGET`` faces; ``cycbar homology`` spends that total
once per run, on its cell counts first and then on every walk.  These
facts are checked against enumeration and elimination in the tests, not
proved by the code.
"""

from .cyclic_bar import (
    BASEPOINT,
    CyclicBar,
    WeightComponent,
    _is_integer,
    _require_nonnegative_weight,
    _require_order,
    _Value,
)

__all__ = [
    "AbelianGroup",
    "ChainComplex",
    "WeightPieceReport",
    "smith_normal_form",
    "chain_complex",
    "homology_groups",
    "lambda_dim",
    "morse_homology",
    "expected_reduced_homology",
    "verify_weight_piece",
]


class AbelianGroup(_Value):
    """A finitely generated abelian group Z^rank + sum of Z/d_j.

    The torsion orders form a divisibility chain d_1 | d_2 | ... with every
    d_j >= 2, which makes the representation canonical: two groups are
    isomorphic exactly when they are equal, as ``AbelianGroup`` values.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank=0, torsion=()):
        if not _is_integer(rank) or rank < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")
        torsion = tuple(torsion)
        prev = None
        for d in torsion:
            if not _is_integer(d) or d < 2:
                raise ValueError(f"torsion order {d!r} is not an integer >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"torsion orders {prev}, {d} break divisibility")
            prev = d
        super().__init__(rank, torsion)

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order):
        """Z/order; order 1 gives the trivial group."""
        if not _is_integer(order) or order < 1:
            raise ValueError(f"cyclic order must be an integer >= 1, got {order!r}")
        return cls(0, ()) if order == 1 else cls(0, (order,))

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = AbelianGroup(0, ())


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form of an integer matrix.

    Input is a list of equal-length rows of ints (not bools); the result
    has min(rows, cols) entries: the invariant factors d_1 | d_2 | ...,
    nonnegative, followed by zeros.  The input is not modified.

    Step t moves an entry p of least absolute value in the trailing block
    to (t, t) (a +-1 ends the search) and clears column t, then row t, by
    division with remainder: v // p times the pivot row or column is
    subtracted, which leaves v % p.  A remainder is smaller than p and
    becomes the pivot of a new round of step t.  When row and column are
    clear but p does not divide some trailing entry, that entry's row is
    added to row t, which leaves a remainder in the next round.  So p
    divides every entry that later steps see, and the diagonal is a
    divisibility chain as it is made; no final pass repairs it.
    """
    rows = [list(row) for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix rows must all have the same length")
        if not all(map(_is_integer, row)):
            raise ValueError(f"matrix entries must be integers, got row {row!r}")
    size = min(m, n)
    t = 0
    while t < size:
        pr = pc = -1
        best = 0
        for r in range(t, m):
            row = rows[r]
            for c in range(t, n):
                v = row[c]
                if v and (best == 0 or -best < v < best):
                    best = abs(v)
                    pr, pc = r, c
                    if best == 1:
                        break
            if best == 1:
                break
        if best == 0:
            break
        if pr != t:
            rows[t], rows[pr] = rows[pr], rows[t]
        if pc != t:
            for row in rows:
                row[t], row[pc] = row[pc], row[t]
        pivot = rows[t]
        p = pivot[t]
        for row in rows[t + 1:]:
            q = row[t] // p
            if q:
                for c in range(t, n):
                    row[c] -= q * pivot[c]
        if any(row[t] for row in rows[t + 1:]):
            continue  # a remainder is left: it is the smaller pivot of a new round
        # column t is zero below the pivot, so taking v // p times it from
        # column c leaves v % p in row t and changes no other row
        pivot[t + 1:] = [v % p for v in pivot[t + 1:]]
        if any(pivot[t + 1:]):
            continue
        if best > 1:
            bad = next((row for row in rows[t + 1:] if any(v % p for v in row[t + 1:])), None)
            if bad:
                pivot[t + 1:] = bad[t + 1:]  # row t is zero past the pivot: this adds bad to it
                continue
        t += 1
    return [abs(rows[j][j]) for j in range(t)] + [0] * (size - t)


def _eliminate_unit_pivots(matrix):
    """Eliminate +-1 pivots of a sparse integer matrix.

    Takes a ``SparseColumns`` matrix and returns (u, residual): u pivots
    were removed, each an invariant factor 1, and ``residual`` holds the
    nonzero rows of what is left, densified over its nonzero columns, so
    the Smith form is [1] * u + smith_normal_form(residual), padded with
    zeros.  The column with the fewest entries that holds a unit goes
    first, and in it the unit whose row has the fewest entries (ties by
    index); this Markowitz-style order keeps fill low.  Integer row
    operations clear the pivot column; the pivot row is then cleared by
    column operations that touch nothing else, so both are dropped.
    """
    # imported on first use: only reduction needs it, and at module level it
    # would add ~0.7 ms, about a third, to the ~2 ms a fresh interpreter takes
    # to import cycbar (Python 3.11, 2-vCPU Xeon)
    import heapq

    rows, cols = {}, {}
    for c, (rs, vs) in enumerate(matrix.columns()):
        if rs:
            cols[c] = set(rs)
            for r, v in zip(rs, vs):
                rows.setdefault(r, {})[c] = v
    heap = [(len(rs), c) for c, rs in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, pc = heapq.heappop(heap)
        if len(cols.get(pc, ())) != size:
            continue  # stale: the column changed or is gone
        candidates = [(len(rows[r]), r) for r in cols[pc] if rows[r][pc] in (1, -1)]
        if not candidates:
            continue  # requeued if a later row operation changes it
        _, best = min(candidates)
        pivot_row = rows.pop(best)
        p = pivot_row[pc]
        del pivot_row[pc]
        for r in cols.pop(pc) - {best}:
            row = rows[r]
            q = row.pop(pc) * p
            for c, v in pivot_row.items():
                w = row.get(c, 0) - q * v
                if w:
                    row[c] = w
                    cols[c].add(r)
                else:
                    del row[c]
                    cols[c].discard(r)
        for c in pivot_row:
            cols[c].discard(best)
            heapq.heappush(heap, (len(cols[c]), c))
        units += 1
    keep = sorted(c for c, rs in cols.items() if rs)
    at = {c: j for j, c in enumerate(keep)}
    residual = []
    for r in sorted(rows):
        if rows[r]:
            dense = [0] * len(keep)
            for c, v in rows[r].items():
                dense[at[c]] = v
            residual.append(dense)
    return units, residual


class SparseColumns(_Value):
    """A sparse integer matrix held column by column in three tuples of ints.

    Column c has the entries ``rows[starts[c]:starts[c + 1]]``, rows
    increasing, with ``values`` alongside; ``starts`` has one entry per
    column and then ``len(rows)``.  ``len`` is the number of entries, and
    iterating yields (row, col, value) triplets in column order.  Tuples,
    not ``array``, keep the values exact ints and the matrix hashable; a
    row's index is one int object, shared by its entries.  At ``k=5,
    i=15`` a complex held this way takes ~24 B per nonzero, against
    78.7 B with a (row, col, value) tuple each (``tracemalloc``).
    """

    __slots__ = ("starts", "rows", "values")

    @classmethod
    def from_triplets(cls, triplets, height, width):
        """The height x width matrix of (row, col, value) triplets in any order.

        An entry outside the matrix, or a second entry at one position, is
        refused with a ``ValueError`` that names it.
        """
        columns = [[] for _ in range(width)]
        for entry in triplets:
            r, c, _ = entry
            if c not in range(width) or r not in range(height):
                raise ValueError(f"entry {entry!r} lies outside the {height} x {width} matrix")
            columns[c].append(entry)
        starts, rows, values = [0], [], []
        for column in columns:
            column.sort()
            for entry, after in zip(column, column[1:]):
                if entry[0] == after[0]:
                    raise ValueError(f"entries {entry!r} and {after!r} share a position")
            rows += [r for r, _, _ in column]
            values += [v for _, _, v in column]
            starts.append(len(rows))
        return cls(tuple(starts), tuple(rows), tuple(values))

    def __len__(self):
        return len(self.values)

    def columns(self):
        """Each column's (rows, values), two tuple slices."""
        rows, values, starts = self.rows, self.values, self.starts
        for a, b in zip(starts, starts[1:]):
            yield rows[a:b], values[a:b]

    def __iter__(self):
        for c, (rows, values) in enumerate(self.columns()):
            for r, v in zip(rows, values):
                yield r, c, v


class ChainComplex(_Value):
    """Normalized reduced chains of one weight component.

    ``bases[l]`` lists the degree-l generators (nondegenerate simplices),
    ``boundaries[l]`` the matrix of the differential from degree l to
    degree l-1 as ``SparseColumns``; ``boundaries[0]`` has no entries
    since there is no degree -1.  The constructor takes each matrix as
    ``SparseColumns`` or as (row, col, value) triplets in any order, which
    it converts; there must be one matrix per degree.
    """

    __slots__ = ("k", "i", "bases", "boundaries")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        bases, boundaries = self.bases, self.boundaries
        if len(boundaries) != len(bases):
            raise ValueError(f"{len(bases)} degrees need as many boundaries, got {len(boundaries)}")
        matrices = tuple(
            b if type(b) is SparseColumns else SparseColumns.from_triplets(b, len(bases[l - 1]) if l else 0, len(bases[l]))
            for l, b in enumerate(boundaries)
        )
        object.__setattr__(self, "boundaries", matrices)

    @property
    def top_degree(self):
        return len(self.bases) - 1

    def dimension(self, l):
        if 0 <= l <= self.top_degree:
            return len(self.bases[l])
        return 0

    def dimensions(self):
        return [len(b) for b in self.bases]

    def boundary_matrix(self, l):
        """Dense matrix of the degree-l differential (rows: degree l-1)."""
        if not 1 <= l <= self.top_degree:
            raise ValueError(f"no differential at degree {l}")
        dense = [[0] * self.dimension(l) for _ in range(self.dimension(l - 1))]
        for r, c, v in self.boundaries[l]:
            dense[r][c] = v
        return dense

    def boundary_composes_to_zero(self):
        """Exact check that consecutive differentials compose to zero.

        Column c of ``d_{l-1} d_l`` is the sum, over the entries ``(mid, v)``
        of column c of ``d_l``, of ``v`` times column ``mid`` of ``d_{l-1}``;
        it is zero exactly when its positive and negative terms hold the
        same rows, counted.  The columns of ``d_{l-1}`` are laid out once in
        one list, ``flat``: each column's rows of positive entries, then
        those of negative ones, an entry ``w`` repeated ``|w|`` times, with
        the three bounds of column ``mid`` at ``cut[2 mid : 2 mid + 3]``.
        Each entry of a column of ``d_l`` extends ``pos`` by the positive
        part of column ``mid`` and ``neg`` by the negative part, swapped
        when ``v < 0`` and repeated ``|v|`` times; the column is zero when
        the two lists are equal, or equal once sorted.  So each term is two
        slices and two list extends in C, and the first nonzero column ends
        the check.  Besides the complex, one laid-out degree (about 8 B per
        entry, and 16 B per column) and one column are held: one list, not
        two per column, as a list object alone takes 56 B.
        """
        # imported on first use, as heapq is in _eliminate_unit_pivots
        from array import array

        for l in range(2, self.top_degree + 1):
            flat, cut = [], array("q", [0])
            for rows, values in self.boundaries[l - 1].columns():
                minus = []
                for r, w in zip(rows, values):
                    if w == 1:
                        flat.append(r)
                    elif w == -1:
                        minus.append(r)
                    elif w > 0:
                        flat += [r] * w
                    else:
                        minus += [r] * -w
                cut.append(len(flat))
                flat += minus
                cut.append(len(flat))
            for mids, values in self.boundaries[l].columns():
                pos, neg = [], []
                for mid, v in zip(mids, values):
                    a = 2 * mid
                    split = cut[a + 1]
                    up, down = flat[cut[a] : split], flat[split : cut[a + 2]]
                    if v == 1:
                        pos += up
                        neg += down
                    elif v == -1:
                        pos += down
                        neg += up
                    elif v > 0:
                        pos += up * v
                        neg += down * v
                    else:
                        pos += down * -v
                        neg += up * -v
                if pos != neg:
                    pos.sort()
                    neg.sort()
                    if pos != neg:
                        return False
        return True

    def __repr__(self):
        return f"ChainComplex(k={self.k}, i={self.i}, dims={self.dimensions()})"


def chain_complex(wc):
    """Build the normalized reduced chain complex of a weight component.

    The component must be closed under faces degree by degree (true for
    both enumeration routes); a face landing outside the listed basis is
    an error rather than silently dropped.

    Degree l is built one column at a time: the faces of one l-simplex,
    from one ``CyclicBar.faces`` call, are summed in a small dict, and
    the nonzero sums, rows increasing, are appended to the degree's row
    and value lists, which become the ``SparseColumns`` tuples.  Besides
    the complex, only the index of degree l - 1 and those two lists are
    held.
    """
    if not isinstance(wc, WeightComponent):
        raise ValueError("expected a WeightComponent")
    faces = CyclicBar(wc.k).faces
    bases = wc.simplices_by_degree
    boundaries = tuple(_boundary(faces, bases, l) if l else () for l in range(len(bases)))
    return ChainComplex(wc.k, wc.i, bases, boundaries)


def _boundary(faces, bases, l):
    """The differential from degree l, as ``chain_complex`` describes."""
    index = {s: row for row, s in enumerate(bases[l - 1])}
    starts, rows, values = [0], [], []
    for s in bases[l]:
        column = {}
        sign = 1
        for f in faces(s):
            if f is not BASEPOINT:
                row = index.get(f)
                if row is None:
                    raise ValueError(f"face {f} of {s} missing from degree {l - 1} basis")
                column[row] = column.get(row, 0) + sign
            sign = -sign
        for row in sorted(column):
            v = column[row]
            if v:
                rows.append(row)
                values.append(v)
        starts.append(len(rows))
    del index  # not needed while the lists become tuples
    # one list at a time becomes a tuple, so at most one is held twice
    starts = tuple(starts)
    rows = tuple(rows)
    return SparseColumns(starts, rows, tuple(values))


def homology_groups(cx):
    """Integral homology of the complex, one AbelianGroup per degree 0..top.

    Degree l has rank dim_l - rank(d_l) - rank(d_{l+1}) and torsion the
    invariant factors of d_{l+1} exceeding 1.  Each d_l is reduced in two
    stages (Dumas, Heckenbach, Saunders and Welker, 2003): +-1 pivots are
    eliminated on its sparse entries, each of rank 1, and the dense Smith
    form of the unit-free residual gives the rest, with all factors above 1.
    """
    top = cx.top_degree
    ranks, torsion = [0] * (top + 2), [()] * (top + 2)
    for l in range(1, top + 1):
        units, residual = _eliminate_unit_pivots(cx.boundaries[l])
        diagonal = smith_normal_form(residual)
        ranks[l] = units + len(diagonal) - diagonal.count(0)
        torsion[l] = tuple(d for d in diagonal if d > 1)
    return {l: AbelianGroup(cx.dimension(l) - ranks[l] - ranks[l + 1], torsion[l + 1]) for l in range(top + 1)}


# the most faces one morse_homology walk may pop, and the most steps of a cycbar homology run
MORSE_FLOW_BUDGET = 3_000_000

def _morse_cell(s, k):
    """Where the a_0 matching puts the simplex s: (kind, t), as the module docstring scans."""
    top = len(s) - 1
    t = 1
    while t <= top:
        if s[t] >= 2:
            return "lower", t
        if t == top:
            break
        if s[t + 1] < k - 1:
            return "upper", t
        t += 2
    return "critical", t


def morse_homology(k, i):
    """Integral homology of the weight-i component, one AbelianGroup per degree 0..i.

    The same groups as ``homology_groups(chain_complex(...))``, from the
    two critical cells of the matching in the module docstring and one
    walk of the gradient paths from the high cell; each popped cell's faces
    come from one ``CyclicBar.faces`` call, the operator the identity suite
    checks.  Nothing is enumerated or reduced, and the zeros are filled in.
    A walk past ``MORSE_FLOW_BUDGET`` faces is refused with a ``ValueError``.
    """
    nonzero, _ = _morse_walk(k, i, MORSE_FLOW_BUDGET)
    if nonzero is None:
        raise ValueError(f"the Morse flow of weight {i} at k={k} took more than {MORSE_FLOW_BUDGET} faces")
    return {l: nonzero.get(l, ZERO_GROUP) for l in range(i + 1)}


def _morse_walk(k, i, budget):
    """The nonzero groups of ``morse_homology``, or None past ``budget`` faces, and what is left of it.

    {n: Z/|m|}, or {n: Z, n + 1: Z} when m is 0 (n the low cell's degree); {0: Z} at weight 0.
    """
    bar = CyclicBar(k)
    _require_nonnegative_weight(i)
    if i == 0:
        return {0: AbelianGroup.free(1)}, budget
    d = (i - 1) // k
    odd = ((i - 1) % k,) + (1, k - 1) * d + (1,)
    even = (i % k,) + (1, k - 1) * (i // k)
    low, high = (even, odd) if i % k else (odd, even)
    m = 0  # the low cell's coefficient in the Morse boundary of the high cell
    stack = [(high, 1, None)]  # each entry adds c times the boundary of u, without its face d_skip
    while stack:
        u, c, skip = stack.pop()
        budget -= len(u)
        if budget < 0:
            return None, budget
        for a, f in enumerate(bar.faces(u)):
            if a == skip or f is BASEPOINT:
                continue
            kind, t = _morse_cell(f, k)
            if kind == "lower":
                # f is d_t of its partner with incidence (-1)^t: cancel c (-1)^a f
                stack.append((f[:t] + (1, f[t] - 1) + f[t + 1:], c if (a + t) % 2 else -c, t))
            elif kind == "critical":
                m += -c if a % 2 else c  # f is the low cell
            # an upper face is matched down: no gradient path leaves it
    n = len(low) - 1
    if m:
        return {n: AbelianGroup.cyclic(abs(m))}, budget
    return {n: AbelianGroup.free(1), n + 1: AbelianGroup.free(1)}, budget


class WeightPieceReport(_Value):
    """Computed vs predicted homology of one weight component; mutable, so unhashable."""

    __slots__ = ("k", "i", "computed", "expected", "mismatched_degrees")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def matches(self):
        return not self.mismatched_degrees


def _require_weight(i):
    if not _is_integer(i) or i < 1:
        raise ValueError(f"weight must be a positive integer, got {i!r}")


def lambda_dim(i, k):
    """Complex dimension d = floor((i-1)/k) attached to weight i.

    This counts how many full truncation blocks fit below i; the
    associated representation sphere has real dimension 2d.
    """
    _require_weight(i)
    _require_order(k)
    return (i - 1) // k


def expected_reduced_homology(i, k):
    """Reduced integral homology predicted for the weight-i component, i >= 1.

    With d = floor((i-1)/k): a single Z in degrees 2d and 2d+1 (the
    homology of S^(2d) smashed with a disjointly based circle) when k does
    not divide i, and a single Z/k in degree 2d+1 when it does.
    """
    d2 = 2 * lambda_dim(i, k)
    if i % k == 0:
        return {d2 + 1: AbelianGroup.cyclic(k)}
    return {d2: AbelianGroup.free(1), d2 + 1: AbelianGroup.free(1)}


def verify_weight_piece(cx):
    """Compare the homology of a weight component's chain complex with the closed form.

    The closed form covers every weight i >= 1; weight 0 and negative
    weights are rejected before any reduction.
    """
    k, i = cx.k, cx.i
    expected = expected_reduced_homology(i, k)
    computed = homology_groups(cx)
    degrees = sorted(set(computed) | set(expected))
    bad = tuple(
        l
        for l in degrees
        if computed.get(l, ZERO_GROUP) != expected.get(l, ZERO_GROUP)
    )
    return WeightPieceReport(k, i, computed, expected, bad)
