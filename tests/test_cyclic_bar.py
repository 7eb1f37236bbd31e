import gc
import re
from itertools import accumulate, product

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
    # every entry is checked, not only the two that d_0 merges
    with pytest.raises(ValueError, match=re.escape("entries of (1, 1, 7) are not all exponents of Pi_3")):
        bar.face((1, 1, 7), 0)
    # the batched operators need a degree: the basepoint goes through face and degeneracy
    for op in (bar.faces, bar.degeneracies):
        with pytest.raises(ValueError, match="the basepoint has no degree"):
            op(BASEPOINT)
    with pytest.raises(ValueError, match="a 0-simplex has no faces"):
        bar.faces((2,))


def _face_by_definition(k, s, a):
    """d_a of the l-simplex s: entry a + 1 multiplied into entry a, or entry l into entry 0 when a = l."""
    entries = list(s)
    if a == len(s) - 1:
        entries[0] += entries.pop()
    else:
        entries[a] += entries.pop(a + 1)
    return BASEPOINT if max(entries) >= k else tuple(entries)


def _degeneracy_by_definition(s, b):
    """s_b of s: a unit inserted after entry b."""
    entries = list(s)
    entries.insert(b + 1, 0)
    return tuple(entries)


def _check_batched_operators(bar, s):
    k, l = bar.k, len(s) - 1
    degens = tuple(_degeneracy_by_definition(s, b) for b in range(l + 1))
    assert bar.degeneracies(s) == degens, s
    assert [bar.degeneracy(s, b) for b in range(l + 1)] == list(degens), s
    if l == 0:
        return
    if all(0 <= a < k for a in s):
        faces = tuple(_face_by_definition(k, s, a) for a in range(l + 1))
        assert bar.faces(s) == faces, s
        assert [bar.face(s, a) for a in range(l + 1)] == list(faces), s
        return
    with pytest.raises(ValueError, match="not all exponents"):
        bar.faces(s)
    for a in range(l + 1):
        with pytest.raises(ValueError, match="not all exponents"):
            bar.face(s, a)


def test_batched_operators_on_every_cell():
    for k in range(2, 7):
        bar = CyclicBar(k)
        for i in range(11):
            for _, s in bar.enumerate_weight_component(i).simplices():
                _check_batched_operators(bar, s)


def test_batched_operators_on_degeneracy_images():
    # the identity suite maps every degeneracy of a cell: units past slot 0,
    # which the sliding row of faces must merge over and put back
    for k in range(2, 6):
        bar = CyclicBar(k)
        for i in range(10):
            for _, s in bar.enumerate_weight_component(i).simplices():
                for g in bar.degeneracies(s):
                    _check_batched_operators(bar, g)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(-2, k + 2), min_size=1, max_size=16).map(tuple))
    )
)
def test_batched_operators_on_any_tuple(data):
    # entries outside [0, k - 1] included: faces must refuse them, degeneracies need not look;
    # lengths up to 16 reach the degrees verify checks
    k, s = data
    _check_batched_operators(CyclicBar(k), s)


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


def _recursive_compositions(total, parts, hi):
    """Tuples of `parts` entries in [1, hi] summing to `total`, lex order, one recursion per entry."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for a in range(max(1, total - (parts - 1) * hi), min(hi, total - (parts - 1)) + 1):
        for tail in _recursive_compositions(total - a, parts - 1, hi):
            yield (a,) + tail


def test_enumerate_equals_recursive_route_and_counts():
    for k in range(2, 8):
        bar = CyclicBar(k)
        for i in range(0, 15):
            gc.collect()
            gc.disable()
            try:
                wc = bar.enumerate_weight_component(i)
                # a reference cycle left behind would be found here
                assert gc.collect() == 0, (k, i)
            finally:
                gc.enable()
            want = tuple(
                tuple(
                    (first,) + tail
                    for first in range(min(k - 1, i) + 1)
                    for tail in _recursive_compositions(i - first, l, k - 1)
                )
                for l in range(i + 1)
            )
            assert wc.simplices_by_degree == want, (k, i)
            assert wc.degree_counts() == cell_counts(k, i), (k, i)


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
    for k in range(2, 8):
        bar = CyclicBar(k)
        for i in range(1, 13):
            assert bar.generated_cyclic_subset(i) == bar.enumerate_weight_component(i), (k, i)


def _reference_closure(bar, i):
    """The generated closure as it read before it walked nondegenerate cells only.

    Closes the generator under every face, degeneracy and rotation,
    degenerate simplices up to degree i included, and keeps the
    nondegenerate members.  It is the oracle that
    ``generated_cyclic_subset`` must match.
    """
    start = (1,) * i
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        top = len(s) - 1
        images = [bar.cyclic(s)]
        if top >= 1:
            images.extend(bar.face(s, a) for a in range(top + 1))
        # the closure may pass through degenerate simplices one
        # degree above a target, but never above degree i
        if top < i:
            images.extend(bar.degeneracy(s, a) for a in range(top + 1))
        for t in images:
            if t is BASEPOINT or t in seen:
                continue
            seen.add(t)
            stack.append(t)
    blocks = [[] for _ in range(i + 1)]
    for s in seen:
        if not is_degenerate(s):
            blocks[len(s) - 1].append(s)
    return WeightComponent(bar.k, i, tuple(tuple(sorted(b)) for b in blocks))


def test_generated_equals_reference_closure():
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(1, 8):
            assert bar.generated_cyclic_subset(i) == _reference_closure(bar, i), (k, i)


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


def _reference_cell_counts(k, i):
    """``cell_counts`` as it read before it kept each row to its nonzero band.

    Every degree's row comp(m, l, k-1) is filled for all m = 0..i.
    """
    hi = k - 1
    row = [1] + [0] * i  # comp(m, 0, hi)
    counts = []
    for _ in range(i + 1):
        counts.append(sum(row[max(0, i - hi):]))
        acc = [0, *accumulate(row)]
        row = [acc[m] - acc[max(0, m - hi)] for m in range(i + 1)]
    return counts


def test_cell_counts_match_full_rows():
    for k in range(2, 9):
        for i in range(61):
            assert cell_counts(k, i) == _reference_cell_counts(k, i), (k, i)


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
    def faces(self, s):
        out = super().faces(s)
        return out if out[-1] is not BASEPOINT else out[:-1] + ((self.k - 1,) + s[1:-1],)


class _WrapMergesWrongPair(CyclicBar):
    # the last face multiplies the final entry into its left neighbour
    def faces(self, s):
        out = super().faces(s)
        return out[:-1] + out[-2:-1]


class _DegeneracyOneSlotLeft(CyclicBar):
    # inserts the unit at position idx instead of after it
    def degeneracies(self, s):
        return tuple(s[:b] + (0,) + s[b:] for b in range(len(s)))


class _RotateLeft(CyclicBar):
    def cyclic(self, s):
        return s if s is BASEPOINT else s[1:] + s[:1]


class _RotateNoop(CyclicBar):
    def cyclic(self, s):
        return s


class _RotateSwapsFront(CyclicBar):
    # swaps the first two entries, so t^2 = id and t^(l+1) = id fails in even degrees >= 2
    def cyclic(self, s):
        return s if s is BASEPOINT else s[1:2] + s[:1] + s[2:]


class _DegeneraciesSwappedHigh(CyclicBar):
    # from degree 3 up, s_1 and s_2 trade places: several relations of one
    # row fail together, and the suite must name them in order
    def degeneracies(self, s):
        g = super().degeneracies(s)
        return g[:1] + g[2:3] + g[1:2] + g[3:] if len(s) >= 4 else g


BROKEN_BARS = (
    _WrapNeverCollapses,
    _WrapMergesWrongPair,
    _DegeneracyOneSlotLeft,
    _RotateLeft,
    _RotateNoop,
    _RotateSwapsFront,
    _DegeneraciesSwappedHigh,
)

# one pattern per kind of message the suite writes, in the order it checks them
MESSAGE_KINDS = (
    r"d_\d+ d_\d+ != d_\d+ d_\d+",
    r"s_\d+ s_\d+ != s_\d+ s_\d+",
    r"d_\d+ s_\d+ relation fails",
    r"t\^\d+ != id",
    r"d_0 t != d_\d+",
    r"d_\d+ t != t d_\d+",
    r"s_\d+ t != t s_\d+",
    r"s_0 t != t\^2 s_\d+",
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


def test_every_message_kind_is_caught_by_a_broken_bar():
    # so the reference comparisons above cover every relation's message,
    # with its index offsets, on a bar that breaks it
    caught = {kind: set() for kind in MESSAGE_KINDS}
    for k in range(2, 6):
        for cls in BROKEN_BARS:
            bar = cls(k)
            for i in range(9):
                for v in weight_identity_violations(bar, bar.enumerate_weight_component(i)):
                    (kind,) = [kind for kind in MESSAGE_KINDS if re.fullmatch(f"{kind} at \\(.*\\)", v)]
                    caught[kind].add(cls)
    assert all(caught.values()), caught
    assert caught[r"t\^\d+ != id"] == {_RotateSwapsFront}


def test_weight_identity_violations_match_reference():
    for k in range(2, 6):
        for cls in (CyclicBar,) + BROKEN_BARS:
            bar = cls(k)
            for i in range(9):
                wc = bar.enumerate_weight_component(i)
                want = [v for _, s in wc.simplices() for v in _reference_violations(bar, s)]
                assert weight_identity_violations(bar, wc) == want, (cls, k, i)


class _CountingBar(CyclicBar):
    """Counts the images it makes: a batched call its length, a call for one index 1."""

    def __init__(self, k):
        super().__init__(k)
        self.plain = CyclicBar(k)
        self.calls = {"face": 0, "degeneracy": 0, "cyclic": 0}

    def faces(self, s):
        images = self.plain.faces(s)
        self.calls["face"] += len(images)
        return images

    def degeneracies(self, s):
        images = self.plain.degeneracies(s)
        self.calls["degeneracy"] += len(images)
        return images

    def face(self, s, idx):
        self.calls["face"] += 1
        return self.plain.face(s, idx)

    def degeneracy(self, s, idx):
        self.calls["degeneracy"] += 1
        return self.plain.degeneracy(s, idx)

    def cyclic(self, s):
        self.calls["cyclic"] += 1
        return self.plain.cyclic(s)


def test_identity_violations_compute_each_image_once():
    def calls(check):
        bar = _CountingBar(3)
        for i in range(11):
            for _, s in bar.enumerate_weight_component(i).simplices():
                check(bar, s)
        return bar.calls

    new, old = calls(identity_violations), calls(_reference_violations)
    assert old == {"face": 89346, "degeneracy": 79512, "cyclic": 9823}
    # the same images as the per-index suite made, now from batched calls
    assert new == {"face": 50842, "degeneracy": 50857, "cyclic": 9823}


def test_weight_identity_violations_share_images():
    bar = _CountingBar(3)
    for i in range(11):
        weight_identity_violations(bar, bar.enumerate_weight_component(i))
    # one simplex at a time, identity_violations makes 50,842 face and
    # 50,857 degeneracy calls over the same weights
    assert bar.calls["face"] <= 33000
    assert bar.calls["degeneracy"] <= 33000
    assert bar.calls["cyclic"] == 9823
    assert bar.calls == {"face": 30531, "degeneracy": 30545, "cyclic": 9823}


class _FacesDropLast(CyclicBar):
    def faces(self, s):
        return super().faces(s)[:-1]


class _DegeneraciesOneTooMany(CyclicBar):
    def degeneracies(self, s):
        return super().degeneracies(s) + (s + (0,),)


class _FacesDropLastOnDegenerate(CyclicBar):
    # short only on a unit past slot 0, as on every degeneracy
    def faces(self, s):
        out = super().faces(s)
        return out[:-1] if is_degenerate(s) else out


class _DegeneraciesOneTooManyOnDegenerate(CyclicBar):
    def degeneracies(self, s):
        out = super().degeneracies(s)
        return out + (s + (0,),) if is_degenerate(s) else out


def test_batched_result_of_wrong_length_is_refused():
    # zip would cut the rows short and skip relations, so the suite refuses the call
    bar = _FacesDropLast(3)
    message = re.escape("_FacesDropLast.faces((0, 1, 2)) gave 2 images, want 3")
    with pytest.raises(ValueError, match=message):
        identity_violations(bar, (0, 1, 2))
    # weight 3 starts at degree 1, with (1, 2)
    message = re.escape("_FacesDropLast.faces((1, 2)) gave 1 images, want 2")
    with pytest.raises(ValueError, match=message):
        weight_identity_violations(bar, bar.enumerate_weight_component(3))
    bar = _DegeneraciesOneTooMany(3)
    with pytest.raises(ValueError, match=re.escape("_DegeneraciesOneTooMany.degeneracies((2,)) gave 2 images, want 1")):
        identity_violations(bar, (2,))
    # the bars below are short only on degenerate input: cells and their
    # faces pass, and the degeneracies are mapped before a degenerate rotation
    bar = _FacesDropLastOnDegenerate(3)
    message = re.escape("_FacesDropLastOnDegenerate.faces((0, 0, 1, 2)) gave 3 images, want 4")
    with pytest.raises(ValueError, match=message):
        identity_violations(bar, (0, 1, 2))
    # weight 3 starts at degree 1, with (1, 2), whose s_0 is (1, 0, 2)
    message = re.escape("_FacesDropLastOnDegenerate.faces((1, 0, 2)) gave 2 images, want 3")
    with pytest.raises(ValueError, match=message):
        weight_identity_violations(bar, bar.enumerate_weight_component(3))
    bar = _DegeneraciesOneTooManyOnDegenerate(3)
    message = re.escape("_DegeneraciesOneTooManyOnDegenerate.degeneracies((0, 0, 1, 2)) gave 5 images, want 4")
    with pytest.raises(ValueError, match=message):
        identity_violations(bar, (0, 1, 2))
    message = re.escape("_DegeneraciesOneTooManyOnDegenerate.degeneracies((1, 0, 2)) gave 4 images, want 3")
    with pytest.raises(ValueError, match=message):
        weight_identity_violations(bar, bar.enumerate_weight_component(3))


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
