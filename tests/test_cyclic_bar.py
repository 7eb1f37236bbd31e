import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cycbar.cyclic_bar import (
    BASEPOINT,
    CyclicBar,
    WeightComponent,
    cell_counts,
    identity_report,
    identity_violations,
    is_degenerate,
    simplex_weight,
    weight_identity_violations,
)


def test_weight_and_degeneracy_helpers():
    assert simplex_weight((0, 1, 1)) == 2
    assert simplex_weight((3,)) == 3
    assert simplex_weight(BASEPOINT) is None
    assert not is_degenerate((0, 1, 1))
    assert is_degenerate((1, 0, 1))
    assert is_degenerate((0, 1, 0))
    assert not is_degenerate((0,))
    assert not is_degenerate(BASEPOINT)


def test_face_examples():
    bar = CyclicBar(2)
    assert bar.face((0, 1), 0) == (1,)
    assert bar.face((0, 1), 1) == (1,)
    assert bar.face((0, 1, 1), 1) is BASEPOINT
    assert bar.face((1, 1), 0) is BASEPOINT
    bar3 = CyclicBar(3)
    assert bar3.face((1, 1), 0) == (2,)
    # the last face multiplies the final entry into the front one
    assert bar3.face((1, 0, 1), 2) == (2, 0)
    assert bar3.face((2, 1, 2), 2) is BASEPOINT


def test_degeneracy_examples():
    bar = CyclicBar(2)
    assert bar.degeneracy((0, 1), 1) == (0, 1, 0)
    assert bar.degeneracy((0, 1), 0) == (0, 0, 1)
    assert bar.degeneracy((1,), 0) == (1, 0)


def test_cyclic_examples():
    bar = CyclicBar(4)
    assert bar.cyclic((0, 1, 2)) == (2, 0, 1)
    assert bar.cyclic((3,)) == (3,)


def test_basepoint_absorbing():
    bar = CyclicBar(3)
    assert bar.face(BASEPOINT, 0) is BASEPOINT
    assert bar.degeneracy(BASEPOINT, 5) is BASEPOINT
    assert bar.cyclic(BASEPOINT) is BASEPOINT


def test_operator_errors():
    bar = CyclicBar(3)
    with pytest.raises(ValueError):
        bar.face((1,), 0)
    with pytest.raises(ValueError):
        bar.face((1, 1), 2)
    with pytest.raises(ValueError):
        bar.face((1, 1), -1)
    with pytest.raises(ValueError):
        bar.degeneracy((1, 1), 2)


def test_enumerate_fixtures():
    bar2 = CyclicBar(2)
    assert bar2.enumerate_weight_component(1).simplices_by_degree == (
        ((1,),),
        ((0, 1),),
    )
    assert bar2.enumerate_weight_component(2).simplices_by_degree == (
        (),
        ((1, 1),),
        ((0, 1, 1),),
    )
    bar3 = CyclicBar(3)
    assert bar3.enumerate_weight_component(2).simplices_by_degree == (
        ((2,),),
        ((0, 2), (1, 1)),
        ((0, 1, 1),),
    )


def test_weight_zero_component():
    wc = CyclicBar(3).enumerate_weight_component(0)
    assert wc.simplices_by_degree == (((0,),),)
    assert wc.alternating_count() == 1


def test_top_degree_is_weight():
    for k in (2, 3, 5):
        bar = CyclicBar(k)
        for i in range(1, 9):
            for wc in (bar.enumerate_weight_component(i), bar.generated_cyclic_subset(i)):
                assert wc.top_degree == i
                assert wc.simplices_by_degree[i] == ((0,) + (1,) * i,)


def test_enumerate_against_brute_force():
    # independent route: filter the full cube of exponent tuples
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(0, 7):
            wc = bar.enumerate_weight_component(i)
            for l in range(0, (i if i else 0) + 1):
                brute = sorted(
                    t
                    for t in product(range(k), repeat=l + 1)
                    if sum(t) == i and all(a >= 1 for a in t[1:])
                )
                block = (
                    wc.simplices_by_degree[l]
                    if l < len(wc.simplices_by_degree)
                    else ()
                )
                assert list(block) == brute, (k, i, l)


def test_enumeration_is_sorted_lex():
    wc = CyclicBar(5).enumerate_weight_component(6)
    for block in wc.simplices_by_degree:
        assert list(block) == sorted(block)


def test_rejects_bad_weights():
    bar = CyclicBar(3)
    with pytest.raises(ValueError):
        bar.enumerate_weight_component(-1)
    with pytest.raises(ValueError):
        bar.generated_cyclic_subset(0)
    with pytest.raises(ValueError):
        bar.generated_cyclic_subset(-2)


def test_enumerate_refuses_booleans():
    bar = CyclicBar(3)
    for i in (True, False):
        with pytest.raises(ValueError, match=f"got {i!r}"):
            bar.enumerate_weight_component(i)
    with pytest.raises(ValueError, match="got True"):
        bar.generated_cyclic_subset(True)
    with pytest.raises(ValueError, match="got True"):
        CyclicBar(True)


def test_generated_equals_enumerated_small():
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(1, 7):
            assert bar.generated_cyclic_subset(i) == bar.enumerate_weight_component(i)


def test_cell_counts_match_enumeration():
    for k in range(2, 7):
        bar = CyclicBar(k)
        for i in range(13):
            counts = bar.enumerate_weight_component(i).degree_counts()
            assert cell_counts(k, i) == counts, (k, i)


def test_cell_counts_at_large_weights():
    # k=2: a_0 in {0, 1} and a tail of ones, so one cell in each of degrees i-1 and i
    assert cell_counts(2, 1000) == [0] * 999 + [1, 1]
    assert [sum(cell_counts(2, i)) for i in range(4)] == [1, 2, 2, 2]
    # verify's weighed sizes on each side of its budget, a cell of degree l weighing (l + 1)**3
    for k, max_i, cells, weight in (
        (4, 16, 46497, 49112989),
        (5, 16, 85487, 75442464),
        (5, 17, 164783, 172552284),
        (2, 100, 201, 52035301),
        (2, 118, 237, 100274041),
    ):
        counts = [cell_counts(k, i) for i in range(max_i + 1)]
        assert sum(map(sum, counts)) == cells
        assert sum(c * (l + 1) ** 3 for row in counts for l, c in enumerate(row)) == weight
    # 3.6e28 cells at k=5, i=100, without listing one
    assert sum(cell_counts(5, 100)) == 35887606673100025828208205026


@pytest.mark.parametrize("k, i", [(1, 3), (True, 3), (3, -1), (3, 2.0), (3, True)])
def test_cell_counts_refuse_bad_input(k, i):
    with pytest.raises(ValueError):
        cell_counts(k, i)


def test_faces_stay_nondegenerate():
    # merging entries of a nondegenerate tuple cannot create a unit
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(1, 8):
            for l, s in bar.enumerate_weight_component(i).simplices():
                if l == 0:
                    continue
                for a in range(l + 1):
                    f = bar.face(s, a)
                    assert f is BASEPOINT or not is_degenerate(f), (s, a)


def test_identity_suite_small():
    for k in (2, 3):
        checked, violations = identity_report(k, 8)
        assert checked > 0
        assert violations == []


@pytest.mark.parametrize("max_weight", [-1, 2.5, True, "3", None])
def test_identity_report_refuses_bad_max_weight(max_weight):
    with pytest.raises(ValueError, match=f"max_weight must be .*, got {re.escape(repr(max_weight))}"):
        identity_report(3, max_weight)


def test_identity_violations_on_one_simplex():
    bar = CyclicBar(3)
    assert identity_violations(bar, (0, 1, 2, 1)) == []
    assert identity_violations(bar, (2,)) == []


def test_alternating_count_vanishes_small():
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(1, 11):
            assert bar.enumerate_weight_component(i).alternating_count() == 0


simplex_strategy = st.tuples(
    st.integers(min_value=2, max_value=5),
).flatmap(
    lambda t: st.tuples(
        st.just(t[0]),
        st.lists(st.integers(0, t[0] - 1), min_size=1, max_size=7).map(tuple),
    )
)


@given(simplex_strategy)
def test_operators_preserve_weight(data):
    k, s = data
    bar = CyclicBar(k)
    w = sum(s)
    l = len(s) - 1
    assert sum(bar.cyclic(s)) == w
    for a in range(l + 1):
        assert sum(bar.degeneracy(s, a)) == w
        if l >= 1:
            f = bar.face(s, a)
            assert f is BASEPOINT or sum(f) == w


@given(simplex_strategy)
def test_rotation_has_order_degree_plus_one(data):
    k, s = data
    bar = CyclicBar(k)
    r = s
    for _ in range(len(s)):
        r = bar.cyclic(r)
    assert r == s


def _reference_violations(bar, s):
    """The identity suite as it read before each image was computed once.

    Every relation recomputes both of its sides from ``s``.  It is the
    oracle that ``identity_violations`` must match message for message,
    in the same order.
    """
    bad = []
    l = len(s) - 1
    d, sg, t = bar.face, bar.degeneracy, bar.cyclic

    if l >= 2:
        for b in range(1, l + 1):
            for a in range(b):
                if d(d(s, b), a) != d(d(s, a), b - 1):
                    bad.append(f"d_{a} d_{b} != d_{b-1} d_{a} at {s}")
    for b in range(l + 1):
        for a in range(b + 1):
            if sg(sg(s, b), a) != sg(sg(s, a), b + 1):
                bad.append(f"s_{a} s_{b} != s_{b+1} s_{a} at {s}")
    for b in range(l + 1):
        sb = sg(s, b)
        for a in range(l + 2):
            if a < b:
                want = sg(d(s, a), b - 1)
            elif a in (b, b + 1):
                want = s
            else:
                want = sg(d(s, a - 1), b)
            if d(sb, a) != want:
                bad.append(f"d_{a} s_{b} relation fails at {s}")
    r = s
    for _ in range(l + 1):
        r = t(r)
    if r != s:
        bad.append(f"t^{l + 1} != id at {s}")
    ts = t(s)
    if l >= 1:
        if d(ts, 0) != d(s, l):
            bad.append(f"d_0 t != d_{l} at {s}")
        for a in range(1, l + 1):
            if d(ts, a) != t(d(s, a - 1)):
                bad.append(f"d_{a} t != t d_{a-1} at {s}")
    for a in range(1, l + 1):
        if sg(ts, a) != t(sg(s, a - 1)):
            bad.append(f"s_{a} t != t s_{a-1} at {s}")
    if sg(ts, 0) != t(t(sg(s, l))):
        bad.append(f"s_0 t != t^2 s_{l} at {s}")
    return bad


class _WrapNeverCollapses(CyclicBar):
    # the last face saturates at x^(k-1) instead of hitting the basepoint
    def face(self, s, idx):
        f = super().face(s, idx)
        if f is BASEPOINT and s is not BASEPOINT and idx == len(s) - 1:
            return (self.k - 1,) + s[1:-1]
        return f


class _WrapMergesWrongPair(CyclicBar):
    # the last face multiplies the final entry into its left neighbour
    def face(self, s, idx):
        if s is not BASEPOINT and idx == len(s) - 1 >= 1:
            return super().face(s, idx - 1)
        return super().face(s, idx)


class _DegeneracyOneSlotLeft(CyclicBar):
    # inserts the unit at position idx instead of after it
    def degeneracy(self, s, idx):
        g = super().degeneracy(s, idx)
        return g if g is BASEPOINT else s[:idx] + (0,) + s[idx:]


class _RotateLeft(CyclicBar):
    def cyclic(self, s):
        return s if s is BASEPOINT else s[1:] + s[:1]


class _RotateNoop(CyclicBar):
    def cyclic(self, s):
        return s


BROKEN_BARS = (
    _WrapNeverCollapses,
    _WrapMergesWrongPair,
    _DegeneracyOneSlotLeft,
    _RotateLeft,
    _RotateNoop,
)


def _outcome(check, bar, s):
    try:
        return check(bar, s)
    except ValueError as exc:
        return type(exc)


def test_identity_violations_match_reference():
    caught = dict.fromkeys(BROKEN_BARS, 0)
    for k in range(2, 6):
        for cls in (CyclicBar,) + BROKEN_BARS:
            bar = cls(k)
            for i in range(9):
                for _, s in bar.enumerate_weight_component(i).simplices():
                    want = _outcome(_reference_violations, bar, s)
                    assert _outcome(identity_violations, bar, s) == want, (cls, s)
                    if cls is CyclicBar:
                        assert want == []
                    else:
                        caught[cls] += len(want)
    # each broken bar is caught, so the comparison covers failing relations
    assert all(caught.values()), caught


def test_weight_identity_violations_match_reference():
    for k in range(2, 6):
        for cls in (CyclicBar,) + BROKEN_BARS:
            bar = cls(k)
            for i in range(9):
                wc = bar.enumerate_weight_component(i)
                want = [v for _, s in wc.simplices() for v in _reference_violations(bar, s)]
                assert weight_identity_violations(bar, wc) == want, (cls, k, i)


class _CountingBar(CyclicBar):
    def __init__(self, k):
        super().__init__(k)
        self.calls = {"face": 0, "degeneracy": 0, "cyclic": 0}

    def face(self, s, idx):
        self.calls["face"] += 1
        return super().face(s, idx)

    def degeneracy(self, s, idx):
        self.calls["degeneracy"] += 1
        return super().degeneracy(s, idx)

    def cyclic(self, s):
        self.calls["cyclic"] += 1
        return super().cyclic(s)


def test_identity_violations_compute_each_image_once():
    def calls(check):
        bar = _CountingBar(3)
        for i in range(11):
            for _, s in bar.enumerate_weight_component(i).simplices():
                check(bar, s)
        return bar.calls

    new, old = calls(identity_violations), calls(_reference_violations)
    assert old == {"face": 89346, "degeneracy": 79512, "cyclic": 9823}
    assert new["face"] < old["face"]
    assert new["degeneracy"] < old["degeneracy"]
    assert new["cyclic"] == old["cyclic"]


def test_weight_identity_violations_share_images():
    bar = _CountingBar(3)
    for i in range(11):
        weight_identity_violations(bar, bar.enumerate_weight_component(i))
    # one simplex at a time, identity_violations makes 50,842 face and
    # 50,857 degeneracy calls over the same weights
    assert bar.calls["face"] <= 33000
    assert bar.calls["degeneracy"] <= 33000
    assert bar.calls["cyclic"] == 9823


def test_identity_violations_rejects_bad_simplices():
    bar = CyclicBar(3)
    with pytest.raises(ValueError, match="basepoint"):
        identity_violations(bar, BASEPOINT)
    # the first operator call that fails may differ, so only the type is pinned
    for s in [(), (7,), (5, 1), (1, -1, 1), (True, 1)]:
        with pytest.raises(ValueError):
            identity_violations(bar, s)
    # each is refused before any operator runs, by a message that names it
    for s in [(), (7,), (5, 1), (1, -1, 1), (True, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"in [0, 2], got s={s!r}")):
            identity_violations(bar, s)
    # the weight-level suite refuses them by the same messages
    for s in [BASEPOINT, (), (7,), (5, 1), (1, -1, 1), (True, 1)]:
        wc = WeightComponent(3, 2, ((), (s,)))
        with pytest.raises(ValueError, match="basepoint" if s is BASEPOINT else "got s="):
            weight_identity_violations(bar, wc)
