"""The a_0 Morse matching and the homology read off its two critical cells.

Every fact the module docstring of ``cycbar.homology`` argues is checked
here against enumeration: the matching on every cell of small weights,
its local steps over every pair (a_t, a_{t+1}) for small k, its critical
cells against the generated closure, the walk's cells against repeats,
and the groups against the elimination and against the closed form.
"""

from itertools import product

import pytest

import cycbar.homology
from cycbar.cyclic_bar import BASEPOINT, CyclicBar
from cycbar.homology import (
    MORSE_FLOW_BUDGET,
    ZERO_GROUP,
    AbelianGroup,
    _morse_cell,
    _morse_walk,
    chain_complex,
    expected_reduced_homology,
    homology_groups,
    morse_homology,
)
from cycbar.tate_tp import nil_invariance_report, p_adic_valuation


def _split(s, t):
    """s with entry t split into (1, s[t] - 1): the partner of a lower cell."""
    return s[:t] + (1, s[t] - 1) + s[t + 1:]


def _incidence(bar, u, s):
    """The coefficient of s in the boundary of u."""
    return sum((-1) ** a for a in range(len(u)) if bar.face(u, a) == s)


def _critical_by_formula(k, i):
    """(a_0, (1, k-1)^j) with i - a_0 = jk, and (a_0, (1, k-1)^j, 1) with i - a_0 = jk + 1."""
    cells = set()
    for a0, j in product(range(k), range(i + 1)):
        if a0 + j * k == i:
            cells.add((a0,) + (1, k - 1) * j)
        if a0 + j * k + 1 == i:
            cells.add((a0,) + (1, k - 1) * j + (1,))
    return cells


def test_matching_on_enumerated_cells():
    for k in range(2, 7):
        bar = CyclicBar(k)
        for i in range(13):
            blocks = bar.enumerate_weight_component(i).simplices_by_degree
            cells = [set(block) for block in blocks] + [set()]
            critical = set()
            for l, block in enumerate(blocks):
                for s in block:
                    kind, t = _morse_cell(s, k)
                    q = t // 2
                    assert s[1:t] == (1, k - 1) * q, (k, s)
                    if kind == "critical":
                        critical.add(s)
                    elif kind == "lower":
                        u = _split(s, t)
                        assert u in cells[l + 1], (k, s)
                        assert _morse_cell(u, k) == ("upper", t), (k, s)
                        assert _incidence(bar, u, s) == (-1) ** t, (k, s)
                    else:
                        f = bar.face(s, t)
                        assert f in cells[l - 1], (k, s)
                        assert _morse_cell(f, k) == ("lower", t), (k, s)
                        assert _split(f, t) == s, (k, s)
            assert critical == _critical_by_formula(k, i), (k, i)
            assert len(critical) == (1 if i == 0 else 2)


def _key(s, k):
    # q, the (1, k-1) pairs the scan passed, is t // 2
    return s[0], _morse_cell(s, k)[1] // 2


@pytest.mark.parametrize("k", range(2, 8))
def test_local_steps_over_every_pair(k):
    # s = (a_0, (1, k-1)^q, a_t, a_{t+1}, rest) over every a_0, every pair
    # (a_t, a_{t+1}) and a few rests, and (a_0, (1, k-1)^q, a_t) with t = l
    bar = CyclicBar(k)
    entries = range(1, k)
    rests = [(), (1,), (k - 1,), (1, k - 1), (k - 1, 1)]
    seen = set()
    for a0, q in product(range(k), range(3)):
        prefix = (a0,) + (1, k - 1) * q
        t = 2 * q + 1
        shapes = [prefix + (x,) for x in entries]
        shapes += [prefix + (x, y) + rest for x, y in product(entries, entries) for rest in rests]
        for s in shapes:
            kind, t_s = _morse_cell(s, k)
            q_s = t_s // 2
            x = s[t]
            y = s[t + 1] if t + 1 < len(s) else None
            if x >= 2:
                assert (kind, t_s, q_s) == ("lower", t, q), s
            elif y is None:
                assert kind == "critical", s
                continue
            elif y <= k - 2:
                assert (kind, t_s, q_s) == ("upper", t, q), s
                f = bar.face(s, t)
                assert _morse_cell(f, k) == ("lower", t) and _split(f, t) == s, s
                continue
            else:
                # a (1, k-1) pair: the scan passes it, so the key grows
                assert t_s > t and q_s > q, s
                continue
            seen.add((x, y))
            u = _split(s, t)
            # the rule sends each partner to the other
            assert _morse_cell(u, k) == ("upper", t), s
            assert bar.face(u, t) == s
            for a in range(len(u)):
                if a == t:
                    continue
                f = bar.face(u, a)
                if 1 <= a < t:
                    # the faces inside the prefix or at its end overflow
                    assert f is BASEPOINT, (s, a)
                    continue
                if f is BASEPOINT:
                    continue
                assert f != s, (s, a)
                if a in (0, len(u) - 1):
                    assert f[0] > a0, (s, a)  # d_0 and d_l raise a_0
                else:
                    assert a > t and f[:t + 1] == prefix + (1,), (s, a)
                    if a > t + 1:
                        assert _morse_cell(f, k)[0] == "upper", (s, a)
                if _morse_cell(f, k)[0] == "lower":
                    # a gradient path s -> u -> f raises the key (a_0, q)
                    assert _key(f, k) > _key(s, k), (s, a)
    assert seen == {(x, y) for x, y in product(range(2, k), list(entries) + [None])}


def test_morse_matches_elimination():
    for k in range(2, 7):
        bar = CyclicBar(k)
        for i in range(13):
            cx = chain_complex(bar.enumerate_weight_component(i))
            assert morse_homology(k, i) == homology_groups(cx), (k, i)


def test_morse_matches_closed_form():
    for k in range(2, 8):
        for i in range(1, 41):
            groups = morse_homology(k, i)
            assert list(groups) == list(range(i + 1)), (k, i)
            nonzero = {l: g for l, g in groups.items() if not g.is_trivial}
            assert nonzero == expected_reduced_homology(i, k), (k, i)


def test_morse_weight_zero_and_large_weights():
    assert morse_homology(4, 0) == {0: AbelianGroup.free(1)}
    # 3.6e28 cells; 5 | 100, so d = 19 and the Z/5 sits in degree 2d+1
    groups = morse_homology(5, 100)
    assert {l: str(g) for l, g in groups.items() if not g.is_trivial} == {39: "Z/5"}
    groups = morse_homology(2, 1001)
    assert {l: str(g) for l, g in groups.items() if not g.is_trivial} == {1000: "Z", 1001: "Z"}


@pytest.mark.parametrize("k, i", [(1, 3), (True, 3), (3, -1), (3, 2.0), (3, True)])
def test_morse_refuses_bad_input(k, i):
    with pytest.raises(ValueError):
        morse_homology(k, i)


def test_morse_flow_budget(monkeypatch):
    # the walk of k=5, i=16 pops 32 cells of degree 7: 256 faces
    monkeypatch.setattr(cycbar.homology, "MORSE_FLOW_BUDGET", 256)
    assert morse_homology(5, 16)[7] == AbelianGroup.free(1)
    monkeypatch.setattr(cycbar.homology, "MORSE_FLOW_BUDGET", 255)
    with pytest.raises(ValueError, match="the Morse flow of weight 16 at k=5 took more than 255 faces"):
        morse_homology(5, 16)


def test_walk_replaces_each_lower_cell_once(monkeypatch):
    # every lower face the walk meets is pushed as its partner; none may come twice
    met = []

    def recording(s, k):
        kind, t = _morse_cell(s, k)
        if kind == "lower":
            met.append(s)
        return kind, t

    monkeypatch.setattr(cycbar.homology, "_morse_cell", recording)
    for k, i in [(k, i) for k in range(2, 9) for i in range(41)] + [(5, 100)]:
        met.clear()
        morse_homology(k, i)
        assert len(met) == len(set(met)), (k, i)
    assert len(met) == 10_605  # k=5, i=100


@pytest.mark.parametrize("k", range(2, 7))
def test_critical_cells_lie_in_the_generated_closure(k):
    # the closure of (1, ..., 1) is a route to the cells independent of enumeration
    bar = CyclicBar(k)
    for i in range(1, 11):
        blocks = bar.generated_cyclic_subset(i).simplices_by_degree
        critical = {s for block in blocks for s in block if _morse_cell(s, k)[0] == "critical"}
        assert critical == _critical_by_formula(k, i), (k, i)


def _reference_morse_walk(k, i, budget):
    """``_morse_walk`` as it read before it took each cell's faces in one call.

    One ``CyclicBar.face`` call per face, the skipped face not computed.
    It is the oracle that ``_morse_walk`` must match: its nonzero groups and the budget left.
    """
    bar = CyclicBar(k)
    if i == 0:
        return {0: AbelianGroup.free(1)}, budget
    groups = dict.fromkeys(range(i + 1), ZERO_GROUP)
    d = (i - 1) // k
    odd = ((i - 1) % k,) + (1, k - 1) * d + (1,)
    even = (i % k,) + (1, k - 1) * (i // k)
    low, high = (even, odd) if i % k else (odd, even)
    m = 0
    stack = [(high, 1, None)]
    while stack:
        u, c, skip = stack.pop()
        budget -= len(u)
        if budget < 0:
            return None, budget
        for a in range(len(u)):
            if a == skip:
                continue
            f = bar.face(u, a)
            if f is BASEPOINT:
                continue
            kind, t = _morse_cell(f, k)
            if kind == "lower":
                stack.append((f[:t] + (1, f[t] - 1) + f[t + 1:], c if (a + t) % 2 else -c, t))
            elif kind == "critical":
                m += -c if a % 2 else c
    n = len(low) - 1
    groups[n] = AbelianGroup.cyclic(abs(m)) if m else AbelianGroup.free(1)
    if not m:
        groups[n + 1] = AbelianGroup.free(1)
    return groups, budget


def _nonzero(walk):
    """A walk's groups with the trivial ones left out, and the budget left."""
    groups, left = walk
    return (None if groups is None else {l: g for l, g in groups.items() if not g.is_trivial}), left


def test_walk_matches_per_face_reference():
    # the walk takes each cell's faces from CyclicBar.faces, the operator the identity suite
    # checks, and returns only the nonzero groups the reference lists among its zeros
    for k in range(2, 8):
        for i in range(61):
            walk = _morse_walk(k, i, MORSE_FLOW_BUDGET)
            assert walk == _nonzero(_reference_morse_walk(k, i, MORSE_FLOW_BUDGET)), (k, i)
            assert len(walk[0]) in (1, 2), (k, i)
    # and runs out of budget at the same face
    assert _morse_walk(5, 16, 255) == _reference_morse_walk(5, 16, 255) == (None, -1)


@pytest.mark.parametrize("p, k", [(2, 12), (3, 18), (5, 5**5), (2, 2**14), (7, 77)])
def test_tp_witness_weight_has_computed_group_z_mod_k(p, k):
    # when p | k the verdict's witness is weight k; the walk computes its one group, Z/k in
    # degree 1, and the witness exponent is v_p(k); the verdict itself stays closed-form
    v = nil_invariance_report(p, k)
    groups = morse_homology(k, v.witness_weight)
    assert len(groups) == k + 1
    assert {l: g for l, g in groups.items() if not g.is_trivial} == {1: AbelianGroup.cyclic(k)}
    assert p_adic_valuation(p, k) == v.witness_exponent
