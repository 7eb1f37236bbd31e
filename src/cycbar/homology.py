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
are kept as sparse (row, col, value) triplets.  First, +-1 pivots are
eliminated on the sparse rows, sparsest column first; each contributes an
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
not divide i and +-k when it does.  These facts are checked against
enumeration and elimination in the tests, not proved by the code.
"""

from dataclasses import dataclass

from .cyclic_bar import (
    BASEPOINT,
    CyclicBar,
    WeightComponent,
    _is_integer,
    _require_nonnegative_weight,
    _require_order,
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


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^rank + sum of Z/d_j.

    The torsion orders form a divisibility chain d_1 | d_2 | ... with every
    d_j >= 2, which makes the representation canonical: two groups are
    isomorphic exactly when the dataclasses are equal.
    """

    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if not _is_integer(self.rank) or self.rank < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {self.rank!r}")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for d in self.torsion:
            if not _is_integer(d) or d < 2:
                raise ValueError(f"torsion order {d!r} is not an integer >= 2")
            if prev is not None and d % prev:
                raise ValueError(f"torsion orders {prev}, {d} break divisibility")
            prev = d

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


def _eliminate_unit_pivots(triplets):
    """Eliminate +-1 pivots of a sparse integer matrix.

    Takes (row, col, value) triplets and returns (u, residual): u pivots
    were removed, each an invariant factor 1, and ``residual`` holds the
    nonzero rows of what is left, densified over its nonzero columns, so
    the Smith form is [1] * u + smith_normal_form(residual), padded with
    zeros.  The column with the fewest entries that holds a unit goes
    first, and in it the unit whose row has the fewest entries (ties by
    index); this Markowitz-style order keeps fill low.  Integer row
    operations clear the pivot column; the pivot row is then cleared by
    column operations that touch nothing else, so both are dropped.
    """
    # imported on first use: only reduction needs it, and a module-level
    # import would add its cost to every fresh interpreter that imports cycbar
    import heapq

    rows, cols = {}, {}
    for r, c, v in triplets:
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
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


def _invariant_factors(triplets, m, n):
    """Smith form diagonal of the m x n matrix given by sparse triplets."""
    units, residual = _eliminate_unit_pivots(triplets)
    out = [1] * units + smith_normal_form(residual)
    return out + [0] * (min(m, n) - len(out))


@dataclass(frozen=True)
class ChainComplex:
    """Normalized reduced chains of one weight component.

    ``bases[l]`` lists the degree-l generators (nondegenerate simplices),
    ``boundaries[l]`` the matrix of the differential from degree l to
    degree l-1 as sorted (row, col, value) triplets; ``boundaries[0]`` is
    empty since there is no degree -1.
    """

    k: int
    i: int
    bases: tuple
    boundaries: tuple

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

        Row r of ``d_{l-1} d_l`` is the sum, over the entries ``(r, mid, w)``
        of ``d_{l-1}``, of ``w`` times row ``mid`` of ``d_l``.  The product
        is summed one row at a time, so only that row is held, and the
        first nonzero row ends the check.  The triplets may come in any
        order.
        """
        for l in range(2, self.top_degree + 1):
            lower = {}
            for r, mid, w in self.boundaries[l - 1]:
                lower.setdefault(r, []).append((mid, w))
            upper = {}
            for mid, c, v in self.boundaries[l]:
                upper.setdefault(mid, {})[c] = v
            for entries in lower.values():
                acc = {}
                for mid, w in entries:
                    for c, v in upper.get(mid, {}).items():
                        acc[c] = acc.get(c, 0) + w * v
                if any(acc.values()):
                    return False
        return True

    def __repr__(self):
        return f"ChainComplex(k={self.k}, i={self.i}, dims={self.dimensions()})"


def chain_complex(wc):
    """Build the normalized reduced chain complex of a weight component.

    The component must be closed under faces degree by degree (true for
    both enumeration routes); a face landing outside the listed basis is
    an error rather than silently dropped.
    """
    if not isinstance(wc, WeightComponent):
        raise ValueError("expected a WeightComponent")
    bar = CyclicBar(wc.k)
    bases = wc.simplices_by_degree
    index = [{s: col for col, s in enumerate(block)} for block in bases]
    boundaries = [()]
    for l in range(1, len(bases)):
        cells = {}
        for col, s in enumerate(bases[l]):
            sign = 1
            for a in range(l + 1):
                f = bar.face(s, a)
                if f is not BASEPOINT:
                    row = index[l - 1].get(f)
                    if row is None:
                        raise ValueError(
                            f"face {f} of {s} missing from degree {l - 1} basis"
                        )
                    cells[row, col] = cells.get((row, col), 0) + sign
                sign = -sign
        boundaries.append(
            tuple(sorted((r, c, v) for (r, c), v in cells.items() if v))
        )
    return ChainComplex(wc.k, wc.i, bases, tuple(boundaries))


def homology_groups(cx):
    """Integral homology of the complex, one AbelianGroup per degree 0..top.

    Degree l has rank dim_l - rank(d_l) - rank(d_{l+1}) and torsion the
    invariant factors of d_{l+1} exceeding 1.  Each d_l is reduced in two
    stages (Dumas, Heckenbach, Saunders and Welker, 2003): +-1 pivots are
    eliminated on its sparse triplets, and only the residual without unit
    entries goes to the dense ``smith_normal_form``.
    """
    top = cx.top_degree
    factors = {}
    for l in range(1, top + 1):
        factors[l] = _invariant_factors(
            cx.boundaries[l], cx.dimension(l - 1), cx.dimension(l)
        )
    ranks = {l: sum(1 for d in f if d) for l, f in factors.items()}
    out = {}
    for l in range(top + 1):
        rank = cx.dimension(l) - ranks.get(l, 0) - ranks.get(l + 1, 0)
        torsion = tuple(d for d in factors.get(l + 1, ()) if d > 1)
        out[l] = AbelianGroup(rank, torsion)
    return out


# the most faces, summed over the cells it pops, one weight's Morse walk may take
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
    walk of the gradient paths from the high cell; the faces come from
    ``CyclicBar.face``.  Nothing is enumerated and nothing is reduced.
    A walk is refused with a ``ValueError`` once the faces of the cells
    it pops pass ``MORSE_FLOW_BUDGET``.
    """
    bar = CyclicBar(k)
    _require_nonnegative_weight(i)
    groups = dict.fromkeys(range(i + 1), ZERO_GROUP)
    if i == 0:
        groups[0] = AbelianGroup.free(1)
        return groups
    d = (i - 1) // k
    odd = ((i - 1) % k,) + (1, k - 1) * d + (1,)
    even = (i % k,) + (1, k - 1) * (i // k)
    low, high = (even, odd) if i % k else (odd, even)
    m = faces = 0  # m: the low cell's coefficient in the Morse boundary of the high cell
    stack = [(high, 1, None)]  # each entry adds c times the boundary of u, without its face d_skip
    while stack:
        u, c, skip = stack.pop()
        faces += len(u)
        if faces > MORSE_FLOW_BUDGET:
            raise ValueError(
                f"the Morse flow of weight {i} at k={k} took more than {MORSE_FLOW_BUDGET} faces"
            )
        for a in range(len(u)):
            if a == skip:
                continue
            f = bar.face(u, a)
            if f is BASEPOINT:
                continue
            kind, t = _morse_cell(f, k)
            if kind == "lower":
                # f is d_t of its partner with incidence (-1)^t: cancel c (-1)^a f
                stack.append((f[:t] + (1, f[t] - 1) + f[t + 1:], c if (a + t) % 2 else -c, t))
            elif kind == "critical":
                m += -c if a % 2 else c  # f is the low cell
            # an upper face is matched down: no gradient path leaves it
    n = len(low) - 1
    groups[n] = AbelianGroup.cyclic(abs(m)) if m else AbelianGroup.free(1)
    if not m:
        groups[n + 1] = AbelianGroup.free(1)
    return groups


@dataclass
class WeightPieceReport:
    """Computed vs predicted homology of one weight component."""

    k: int
    i: int
    computed: dict
    expected: dict
    mismatched_degrees: tuple

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
