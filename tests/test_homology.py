import ast
import random
import re
import sys
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycbar.homology
from cycbar.cyclic_bar import BASEPOINT, CyclicBar, WeightComponent
from cycbar.homology import (
    AbelianGroup,
    ChainComplex,
    SparseColumns,
    ZERO_GROUP,
    _eliminate_unit_pivots,
    chain_complex,
    expected_reduced_homology,
    homology_groups,
    smith_normal_form,
    verify_weight_piece,
)

Z = AbelianGroup.free(1)


# --- independent oracle: invariant factors from gcds of minors ------------
#
# d_1 * ... * d_t equals the gcd of all t x t minors, so d_t is the ratio
# of consecutive minor gcds.  Hopeless for big matrices, perfect for
# cross-checking small ones.


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for c, v in enumerate(matrix[0]):
        if v:
            minor = [row[:c] + row[c + 1:] for row in matrix[1:]]
            total += (-1) ** c * v * _det(minor)
    return total


def snf_by_minor_gcd(matrix):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    size = min(m, n)
    out = []
    prev = 1
    for t in range(1, size + 1):
        g = 0
        for rows in combinations(range(m), t):
            for cols in combinations(range(n), t):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out + [0] * (size - len(out))


def test_minor_gcd_oracle_sanity():
    assert snf_by_minor_gcd([[2, 4], [6, 8]]) == [2, 4]
    assert snf_by_minor_gcd([[1, 0], [0, 1]]) == [1, 1]
    assert snf_by_minor_gcd([[0, 0], [0, 0]]) == [0, 0]


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[-5]]) == [5]
    assert smith_normal_form([[3, 0, 0], [0, 0, 0]]) == [3, 0]
    # no pivot divides the next at first: a row is added to the pivot row twice
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[], []]) == []


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_snf_rejects_non_integers():
    for entry in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="integers"):
            smith_normal_form([[entry, 0], [0, 3]])


def test_snf_leaves_input_alone():
    a = [[2, 4], [6, 8]]
    smith_normal_form(a)
    assert a == [[2, 4], [6, 8]]


def test_snf_against_oracle_random():
    rng = random.Random(20260822)
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(a) == snf_by_minor_gcd(a), a
    # no unit entries: every pivot leaves remainders or a trailing entry it does not divide
    unit_free = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -10, 15, -15)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.choice(unit_free) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(a) == snf_by_minor_gcd(a), a
    # entries near 10**12 differ by little, so each division leaves a long run of remainders
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.choice((0, 1, -1)) * (10**12 + rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(a) == snf_by_minor_gcd(a), a


def test_snf_transpose_invariant():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        at = [list(col) for col in zip(*a)]
        assert smith_normal_form(a) == smith_normal_form(at)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
)
def test_snf_properties(a):
    d = smith_normal_form(a)
    assert len(d) == min(len(a), len(a[0]))
    assert all(x >= 0 for x in d)
    nonzero = [x for x in d if x]
    assert d == nonzero + [0] * (len(d) - len(nonzero))
    for u, v in zip(nonzero, nonzero[1:]):
        assert v % u == 0
    assert d == snf_by_minor_gcd(a)


# --- abelian groups -------------------------------------------------------


def test_abelian_group_str():
    assert str(ZERO_GROUP) == "0"
    assert str(Z) == "Z"
    assert str(AbelianGroup(2)) == "Z^2"
    assert str(AbelianGroup(0, (2,))) == "Z/2"
    assert str(AbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


def test_abelian_group_canonical_form_enforced():
    AbelianGroup(0, (2, 6))
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    assert AbelianGroup.cyclic(1) == ZERO_GROUP
    assert AbelianGroup.cyclic(8) == AbelianGroup(0, (8,))


def test_abelian_group_refuses_non_integers():
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="integer"):
            AbelianGroup(bad)
        with pytest.raises(ValueError, match="integer"):
            AbelianGroup(0, (bad,))
        with pytest.raises(ValueError, match="integer"):
            AbelianGroup.cyclic(bad)
    with pytest.raises(ValueError, match="integer"):
        AbelianGroup(0, (2, 4.0))
    assert AbelianGroup(0, [2, 4]).torsion == (2, 4)


# --- chain complexes of weight components ---------------------------------


def test_chain_complex_k2_fixtures():
    bar = CyclicBar(2)
    cx1 = chain_complex(bar.enumerate_weight_component(1))
    assert cx1.dimensions() == [1, 1]
    assert cx1.boundary_matrix(1) == [[0]]

    cx2 = chain_complex(bar.enumerate_weight_component(2))
    assert cx2.dimensions() == [0, 1, 1]
    # for (0,1,1): d_1 overflows the truncation, while d_0 and the
    # wrap-around d_2 both give (1,1) with the same sign
    assert cx2.boundary_matrix(2) == [[2]]


def test_chain_complex_k3_i2_fixture():
    cx = chain_complex(CyclicBar(3).enumerate_weight_component(2))
    assert cx.dimensions() == [1, 2, 1]
    # basis degree 1: (0,2), (1,1); boundary of (0,1,1) is
    # d_0 - d_1 + d_2 = (1,1) - (0,2) + (1,1)
    assert cx.boundary_matrix(2) == [[-1], [2]]
    assert cx.boundary_matrix(1) == [[0, 0]]


def _reference_chain_complex(wc):
    """The build as a (row, col)-keyed dict of each degree, as sorted triplets: the oracle for ``chain_complex``."""
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
                    row = index[l - 1][f]
                    cells[row, col] = cells.get((row, col), 0) + sign
                sign = -sign
        boundaries.append(tuple(sorted((r, c, v) for (r, c), v in cells.items() if v)))
    return ChainComplex(wc.k, wc.i, bases, tuple(boundaries))


def test_chain_complex_equals_reference_build():
    for k in range(2, 7):
        bar = CyclicBar(k)
        for i in range(0, 11):
            wc = bar.enumerate_weight_component(i)
            cx = chain_complex(wc)
            assert cx == _reference_chain_complex(wc), (k, i)
            for block in cx.boundaries:
                assert type(block) is SparseColumns
                assert all(type(b) is tuple for b in block)
                assert all(v for _, _, v in block), (k, i)
                # column order, rows increasing within a column
                keys = [(c, r) for r, c, _ in block]
                assert all(a < b for a, b in zip(keys, keys[1:])), (k, i)


def test_chain_complex_drops_a_cancelling_pair():
    # at k=3, d_0 and the wrap-around d_3 of (1,1,1,1) are both (2,1,1),
    # with signs +1 and -1, so that row gets no entry in its column
    cx = chain_complex(CyclicBar(3).enumerate_weight_component(4))
    col = cx.bases[3].index((1, 1, 1, 1))
    rows = {cx.bases[2][r]: v for r, c, v in cx.boundaries[3] if c == col}
    assert rows == {(1, 2, 1): -1, (1, 1, 2): 1}


def test_chain_complex_refuses_a_face_outside_the_basis():
    wc = CyclicBar(3).enumerate_weight_component(3)
    blocks = list(wc.simplices_by_degree)
    blocks[1] = tuple(s for s in blocks[1] if s != (1, 2))
    with pytest.raises(ValueError, match=r"face \(1, 2\) of .* missing from degree 1 basis"):
        chain_complex(WeightComponent(3, 3, tuple(blocks)))
    with pytest.raises(ValueError, match="expected a WeightComponent"):
        chain_complex(blocks)


def test_build_and_dd_hold_little_beside_the_column_tuples():
    # tracemalloc counts every Python allocation; the bounds are fractions
    # of the size of the complex's starts, rows and values tuples, so they
    # do not depend on the machine.  Here the build reads 0.013x, and the
    # d∘d check, which holds one degree laid out by sign, 0.25x (Python
    # 3.11); a plus and a minus list per column of that degree read 0.45x
    import tracemalloc

    wc = CyclicBar(5).enumerate_weight_component(12)
    tracemalloc.start()
    try:
        cx = chain_complex(wc)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert cx.boundary_composes_to_zero() is True
        dd_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = sum(sys.getsizeof(t) for m in cx.boundaries for t in (m.starts, m.rows, m.values))
    assert size > 3 * 10**5
    assert peak - retained <= 0.15 * size, (peak - retained) / size
    assert dd_peak <= 0.30 * size, dd_peak / size


def test_complex_holds_at_most_30_bytes_per_nonzero():
    # everything the build leaves behind, row index ints included, over the
    # nonzeros: ~24 B, against ~77 B with one (row, col, value) tuple each
    import tracemalloc

    wc = CyclicBar(5).enumerate_weight_component(12)
    tracemalloc.start()
    try:
        cx = chain_complex(wc)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nonzeros = sum(map(len, cx.boundaries))
    assert nonzeros == 18763
    assert retained <= 30 * nonzeros, retained / nonzeros


def test_sparse_columns_len_and_iteration_order():
    # columns 0, 1, 2 of a 3 x 3 matrix hold 2, 0 and 1 entries
    m = SparseColumns.from_triplets([(2, 2, 5), (1, 0, -1), (0, 0, 3)], 3, 3)
    assert m == SparseColumns((0, 2, 2, 3), (0, 1, 2), (3, -1, 5))
    assert len(m) == 3
    assert list(m) == [(0, 0, 3), (1, 0, -1), (2, 2, 5)]
    assert list(m.columns()) == [((0, 1), (3, -1)), ((), ()), ((2,), (5,))]
    assert len(SparseColumns.from_triplets([], 0, 4)) == 0
    for k in (3, 4):
        for i in range(0, 9):
            cx = chain_complex(CyclicBar(k).enumerate_weight_component(i))
            for l, m in enumerate(cx.boundaries):
                triplets = list(m)
                assert len(m) == len(triplets) and len(m.starts) == cx.dimension(l) + 1, (k, i, l)
                assert [(c, r) for r, c, _ in triplets] == sorted((c, r) for r, c, _ in triplets), (k, i, l)


def test_complex_from_triplets_in_any_order_equals_the_build():
    rng = random.Random(20261022)
    for k in (2, 3, 4, 5):
        for i in range(0, 10):
            cx = chain_complex(CyclicBar(k).enumerate_weight_component(i))
            shuffled = [rng.sample(list(m), len(m)) for m in cx.boundaries]
            again = ChainComplex(k, i, cx.bases, tuple(shuffled))
            assert again == cx and hash(again) == hash(cx), (k, i)
            assert all(type(m) is SparseColumns for m in again.boundaries)


def test_complex_refuses_entries_outside_its_matrices():
    # degrees 0, 1, 2 of sizes 1, 2, 1: d_1 is 1 x 2 and d_2 is 2 x 1
    bases = ((0,), (0, 1), (0,))
    good = ((), ((0, 0, 1), (0, 1, -1)), ((0, 0, 1), (1, 0, 1)))
    assert ChainComplex(2, 1, bases, good).boundaries[2] == SparseColumns((0, 2), (0, 1), (1, 1))
    for l, entry in [(1, (0, 2, 1)), (1, (1, 0, 1)), (2, (0, 1, 1)), (2, (2, 0, 1)), (1, (-1, 0, 1)), (0, (0, 0, 1))]:
        bad = list(good)
        bad[l] = good[l] + (entry,)
        with pytest.raises(ValueError, match=rf"entry {re.escape(repr(entry))} lies outside the"):
            ChainComplex(2, 1, bases, tuple(bad))
    with pytest.raises(ValueError, match=r"entries \(0, 0, 1\) and \(0, 0, 2\) share a position"):
        ChainComplex(2, 1, bases, ((), good[1] + ((0, 0, 2),), good[2]))
    with pytest.raises(ValueError, match="3 degrees need as many boundaries, got 2"):
        ChainComplex(2, 1, bases, good[:2])


def test_boundary_squares_to_zero_small():
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(0, 9):
            assert chain_complex(bar.enumerate_weight_component(i)).boundary_composes_to_zero()


# --- d∘d = 0: the whole product in one dict, the oracle for the row-by-row check


def _reference_composes_to_zero(cx):
    for l in range(2, cx.top_degree + 1):
        by_col = {}
        for r, c, v in cx.boundaries[l - 1]:
            by_col.setdefault(c, []).append((r, v))
        acc = {}
        for mid, c, v in cx.boundaries[l]:
            for r, w in by_col.get(mid, ()):
                acc[r, c] = acc.get((r, c), 0) + w * v
        if any(acc.values()):
            return False
    return True


def _with_boundaries(cx, boundaries):
    return ChainComplex(cx.k, cx.i, cx.bases, tuple(tuple(b) for b in boundaries))


def test_dd_check_agrees_with_reference():
    rng = random.Random(20261018)
    broken = 0
    for k in range(2, 6):
        bar = CyclicBar(k)
        for i in range(0, 11):
            cx = chain_complex(bar.enumerate_weight_component(i))
            assert _reference_composes_to_zero(cx) is True, (k, i)
            assert cx.boundary_composes_to_zero() is True, (k, i)
            shuffled = _with_boundaries(cx, [rng.sample(list(b), len(b)) for b in cx.boundaries])
            assert shuffled.boundary_composes_to_zero() is True, (k, i)
            for l in range(2, cx.top_degree + 1):
                # flipping or dropping an entry (mid, c, v) of d_l adds -2v or
                # -v times column mid of d_{l-1} to column c of the product,
                # which is then nonzero when that column is
                hit = {mid for _, mid, _ in cx.boundaries[l - 1]}
                upper = list(cx.boundaries[l])
                at = [n for n, (mid, _, _) in enumerate(upper) if mid in hit]
                if not at:
                    continue
                n = rng.choice(at)
                mid, c, v = upper[n]
                for entry in ((mid, c, -v), None):
                    cells = list(upper)
                    if entry is None:
                        del cells[n]
                    else:
                        cells[n] = entry
                    for order in (cells, rng.sample(cells, len(cells))):
                        bad = list(cx.boundaries)
                        bad[l] = order
                        bad = _with_boundaries(cx, bad)
                        assert _reference_composes_to_zero(bad) is False, (k, i, l)
                        assert bad.boundary_composes_to_zero() is False, (k, i, l)
                        broken += 1
    assert broken > 300


def test_dd_check_agrees_with_reference_on_repeated_entries():
    # the built complexes hold almost no entry of absolute value 2 or more, so
    # scale d_l by a and d_{l-1} by b (the product stays zero) and then flip,
    # double or drop one entry; every entry |v| >= 2 or |w| >= 2 is repeated
    rng = random.Random(20261020)
    verdicts = {True: 0, False: 0}
    for k in range(2, 6):
        bar = CyclicBar(k)
        for i in range(2, 10):
            cx = chain_complex(bar.enumerate_weight_component(i))
            for l in range(2, cx.top_degree + 1):
                a, b = rng.choice([(2, 1), (1, -3), (-2, 3)])
                lower = [(r, c, b * v) for r, c, v in cx.boundaries[l - 1]]
                upper = [(r, c, a * v) for r, c, v in cx.boundaries[l]]
                for side in (lower, upper):
                    if not side:
                        continue
                    n = rng.randrange(len(side))
                    r, c, v = side[n]
                    for change in ((r, c, -v), (r, c, 2 * v), None):
                        cells = list(side)
                        if change is None:
                            del cells[n]
                        else:
                            cells[n] = change
                        pair = [cells, upper] if side is lower else [lower, cells]
                        for order in (pair, [rng.sample(p, len(p)) for p in pair]):
                            bad = list(cx.boundaries)
                            bad[l - 1 : l + 1] = order
                            bad = _with_boundaries(cx, bad)
                            want = _reference_composes_to_zero(bad)
                            assert bad.boundary_composes_to_zero() is want, (k, i, l, change)
                            verdicts[want] += 1
                scaled = list(cx.boundaries)
                scaled[l - 1 : l + 1] = lower, upper
                assert _with_boundaries(cx, scaled).boundary_composes_to_zero() is True, (k, i, l)
                verdicts[True] += 1
    assert verdicts[True] > 100 and verdicts[False] > 300, verdicts


@pytest.mark.parametrize(
    "d1, d2, zero",
    [
        # product entry 1*2 + 1*(-1) = 1: column 0 is twice in pos and once in neg
        (((0, 0, 1), (0, 1, 1)), ((0, 0, 2), (1, 0, -1)), False),
        # the same through a repeated row of d_1: 2*1 + (-1)*1 = 1
        (((0, 0, 2), (0, 1, -1)), ((0, 0, 1), (1, 0, 1)), False),
        # 2*1 + (-1)*2 = 0, both sides repeated
        (((0, 0, 2), (0, 1, -1)), ((0, 0, 1), (1, 0, 2)), True),
    ],
)
def test_dd_check_counts_multiplicity(d1, d2, zero):
    # degrees 0, 1, 2 of sizes 1, 2, 1: d∘d is one entry, and the columns of
    # its positive and negative terms agree as sets even when it is not zero
    cx = ChainComplex(2, 1, ((0,), (0, 1), (0,)), ((), d1, d2))
    assert _reference_composes_to_zero(cx) is zero
    assert cx.boundary_composes_to_zero() is zero


def test_boundary_entries_bounded_by_degree():
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(0, 9):
            cx = chain_complex(bar.enumerate_weight_component(i))
            for l in range(1, cx.top_degree + 1):
                for _, _, v in cx.boundaries[l]:
                    assert abs(v) <= l + 1


def test_homology_k2_fixtures():
    bar = CyclicBar(2)
    assert homology_groups(chain_complex(bar.enumerate_weight_component(1))) == {
        0: Z,
        1: Z,
    }
    assert homology_groups(chain_complex(bar.enumerate_weight_component(2))) == {
        0: ZERO_GROUP,
        1: AbelianGroup.cyclic(2),
        2: ZERO_GROUP,
    }
    h3 = homology_groups(chain_complex(bar.enumerate_weight_component(3)))
    assert {l: g for l, g in h3.items() if not g.is_trivial} == {2: Z, 3: Z}
    h5 = homology_groups(chain_complex(bar.enumerate_weight_component(5)))
    assert {l: g for l, g in h5.items() if not g.is_trivial} == {4: Z, 5: Z}


def test_homology_weight_zero():
    assert homology_groups(chain_complex(CyclicBar(4).enumerate_weight_component(0))) == {0: Z}


def test_euler_characteristic_consistency():
    # alternating sum of homology ranks equals that of chain dimensions
    for k, i in ((2, 4), (3, 3), (3, 5), (4, 6)):
        cx = chain_complex(CyclicBar(k).enumerate_weight_component(i))
        groups = homology_groups(cx)
        chi_dims = sum((-1) ** l * d for l, d in enumerate(cx.dimensions()))
        chi_ranks = sum((-1) ** l * g.rank for l, g in groups.items())
        assert chi_dims == chi_ranks


def test_verify_weight_piece_matches():
    rep = verify_weight_piece(chain_complex(CyclicBar(4).enumerate_weight_component(3)))
    assert rep.matches
    assert {l: g for l, g in rep.computed.items() if not g.is_trivial} == {
        0: Z,
        1: Z,
    }
    rep = verify_weight_piece(chain_complex(CyclicBar(2).enumerate_weight_component(5)))
    assert rep.matches
    assert (rep.k, rep.i) == (2, 5)
    assert rep.expected == {4: Z, 5: Z}


def test_verify_weight_piece_rejects_nonpositive_weights():
    # multiples of k are checked against Z/k in degree 2d+1
    for k, i, degree in ((2, 4, 3), (3, 3, 1)):
        rep = verify_weight_piece(chain_complex(CyclicBar(k).enumerate_weight_component(i)))
        assert rep.matches
        assert rep.expected == {degree: AbelianGroup.cyclic(k)}
    cx = chain_complex(CyclicBar(2).enumerate_weight_component(0))
    with pytest.raises(ValueError, match="positive integer"):
        verify_weight_piece(cx)
    cx = chain_complex(WeightComponent(2, -1))
    with pytest.raises(ValueError, match="positive integer"):
        verify_weight_piece(cx)


def test_homology_does_not_import_tate_tp():
    # the closed form lives beside its check; tate_tp depends on homology only
    tree = ast.parse(Path(cycbar.homology.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
    assert not any("tate_tp" in name for name in imported), imported


def test_torsion_at_multiples_of_k():
    # multiples of k carry pure torsion: frozen for the smallest cases,
    # then the closed form (Z/k in degree 2d+1) at every multiple up to 12
    h = homology_groups(chain_complex(CyclicBar(2).enumerate_weight_component(4)))
    nonzero = {l: str(g) for l, g in h.items() if not g.is_trivial}
    assert nonzero == {3: "Z/2"}
    h = homology_groups(chain_complex(CyclicBar(3).enumerate_weight_component(3)))
    nonzero = {l: str(g) for l, g in h.items() if not g.is_trivial}
    assert nonzero == {1: "Z/3"}
    for k in (2, 3, 4, 5):
        for i in range(k, 13, k):
            h = homology_groups(chain_complex(CyclicBar(k).enumerate_weight_component(i)))
            nonzero = {l: g for l, g in h.items() if not g.is_trivial}
            assert nonzero == expected_reduced_homology(i, k), (k, i)


# --- sparse unit-pivot elimination against the dense Smith form -----------


def _triplets(matrix):
    return [(r, c, v) for r, row in enumerate(matrix) for c, v in enumerate(row) if v]


def _columns(matrix):
    m = len(matrix)
    return SparseColumns.from_triplets(_triplets(matrix), m, len(matrix[0]) if m else 0)


def _sparse_factors(columns, m, n):
    """The whole Smith diagonal of an m x n matrix: 1 per unit pivot, then the residual's, then zeros."""
    units, residual = _eliminate_unit_pivots(columns)
    out = [1] * units + smith_normal_form(residual)
    return out + [0] * (min(m, n) - len(out))


def _factors(matrix):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    return _sparse_factors(_columns(matrix), m, n)


# mostly 0 and +-1, some +-2 and +-3; the second pool has no unit at all
_MIXED = (0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3)
_NO_UNIT = (0, 0, 0, 2, -2, 3, -3)


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8)) if m else 0
    pool = draw(st.sampled_from((_MIXED, _NO_UNIT)))
    a = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(m)]
    for r in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        a[r] = [0] * n
    for c in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        for row in a:
            row[c] = 0
    return a


def test_unit_pivot_examples():
    assert _eliminate_unit_pivots(_columns([])) == (0, [])
    assert _eliminate_unit_pivots(_columns([[2, 4], [6, 8]])) == (0, [[2, 4], [6, 8]])
    # one pivot at (0, 0) leaves the 1x1 residual 8 - 2*3
    assert _eliminate_unit_pivots(_columns([[1, 3], [2, 8]])) == (1, [[2]])
    # zero rows and columns are dropped from the residual
    assert _eliminate_unit_pivots(_columns([[0, 0, 0], [0, 2, 0]])) == (0, [[2]])
    assert _factors([[0, 0, 0], [0, 2, 0]]) == [2, 0]
    assert _factors([[1, 1], [1, -1]]) == [1, 2]
    assert _factors([[-1]]) == [1]
    assert _factors([[], []]) == []


def test_unit_pivots_leave_input_alone():
    cells = [(0, 0, 1), (0, 1, 3), (1, 0, 2), (1, 1, 8)]
    columns = SparseColumns.from_triplets(cells, 2, 2)
    assert _eliminate_unit_pivots(columns) == _eliminate_unit_pivots(columns) == (1, [[2]])
    assert list(columns) == sorted(cells, key=lambda t: t[1])


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_unit_pivots_then_dense_equal_dense(a):
    assert _factors(a) == smith_normal_form(a), a


def test_unit_pivots_against_minor_gcd_oracle():
    rng = random.Random(20261018)
    pool = _MIXED
    for _ in range(200):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6) if m else 0
        a = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        assert _factors(a) == snf_by_minor_gcd(a), a


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_homology_groups_of_one_boundary_against_dense(a):
    # homology_groups reads rank and torsion off the reduction itself; weight
    # components give it nearly empty residuals, so feed it any matrix
    m = len(a)
    n = len(a[0]) if m else 0
    cx = ChainComplex(2, 1, (tuple(range(m)), tuple(range(n))), ((), tuple(_triplets(a))))
    dense = smith_normal_form(a)
    r = sum(1 for d in dense if d)
    torsion = tuple(d for d in dense if d > 1)
    assert homology_groups(cx) == {0: AbelianGroup(m - r, torsion), 1: AbelianGroup(n - r, ())}, a


def _groups_from_factors(cx, factors):
    ranks = {l: sum(1 for d in f if d) for l, f in factors.items()}
    return {
        l: AbelianGroup(
            cx.dimension(l) - ranks.get(l, 0) - ranks.get(l + 1, 0),
            tuple(d for d in factors.get(l + 1, ()) if d > 1),
        )
        for l in range(cx.top_degree + 1)
    }


def test_reduction_agrees_with_dense_over_acceptance_scan():
    for k in (2, 3, 4, 5):
        bar = CyclicBar(k)
        for i in range(0, 13):
            cx = chain_complex(bar.enumerate_weight_component(i))
            snapshot = [list(b) for b in cx.boundaries]
            dense = {}
            for l in range(1, cx.top_degree + 1):
                dense[l] = smith_normal_form(cx.boundary_matrix(l))
                sparse = _sparse_factors(
                    cx.boundaries[l], cx.dimension(l - 1), cx.dimension(l)
                )
                assert sparse == dense[l], (k, i, l)
            groups = homology_groups(cx)
            assert groups == _groups_from_factors(cx, dense), (k, i)
            assert [list(b) for b in cx.boundaries] == snapshot, (k, i)
            assert homology_groups(cx) == groups, (k, i)


def _nontrivial(k, i):
    h = homology_groups(chain_complex(CyclicBar(k).enumerate_weight_component(i)))
    return {l: str(g) for l, g in h.items() if not g.is_trivial}


def test_homology_beyond_dense_reach():
    # 5,744 cells: the closed form, Z in degrees 2d and 2d+1 with d = 2
    assert _nontrivial(5, 13) == {4: "Z", 5: "Z"}
    # 8,362 cells, 3 | 18: a single Z/3 in degree 2d+1 with d = 5
    assert _nontrivial(3, 18) == {11: "Z/3"}
