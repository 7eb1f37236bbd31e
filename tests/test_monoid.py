"""The monoid Pi_k as CyclicBar.face computes it on 1-simplices.

The face d_0 of a 1-simplex (a, b) is the product x^a * x^b, so the
product table of Pi_k is read off the operator itself.  ``law_violations``
is an independent check of the pointed commutative monoid laws on any
finite table; the Pi_k table must pass it for every k in 2..6, and
deliberately broken tables must not.
"""

import pickle

import pytest

from cycbar.cyclic_bar import CyclicBar, simplex_weight
from cycbar.monoid import BASEPOINT

K_RANGE = range(2, 7)


def product(bar, a, b):
    """x^a * x^b via the face d_0 of the 1-simplex (a, b)."""
    f = bar.face((a, b), 0)
    return f if f is BASEPOINT else f[0]


def pi_k_table(k):
    """(elements, table, weight) of Pi_k, products taken from CyclicBar.face."""
    bar = CyclicBar(k)
    elements = [BASEPOINT] + list(range(k))
    table = {(a, b): BASEPOINT for a in elements for b in elements}
    for a in range(k):
        for b in range(k):
            table[a, b] = product(bar, a, b)
    return elements, table, {a: a for a in range(k)}


def law_violations(elements, table, weight):
    """Laws of a finite pointed commutative graded monoid that the table breaks.

    ``elements[0]`` is the basepoint and ``elements[1]`` the unit; the
    table must be total, commutative and associative, the basepoint
    absorbing and the unit neutral.  ``weight`` grades the other elements
    by nonnegative integers, the unit in weight 0, additively wherever a
    product is not the basepoint.
    """
    bad = []
    zero, one = elements[0], elements[1]
    nonzero = elements[1:]
    for a in elements:
        for b in elements:
            if (a, b) not in table:
                return [f"table misses ({a!r}, {b!r})"]
            if table[a, b] not in elements:
                bad.append(f"product of ({a!r}, {b!r}) is not an element")
    if bad:
        return bad
    for a in elements:
        if table[zero, a] != zero or table[a, zero] != zero:
            bad.append(f"basepoint not absorbing at {a!r}")
        if table[one, a] != a or table[a, one] != a:
            bad.append(f"unit not neutral at {a!r}")
        for b in elements:
            if table[a, b] != table[b, a]:
                bad.append(f"not commutative at ({a!r}, {b!r})")
            for c in elements:
                if table[table[a, b], c] != table[a, table[b, c]]:
                    bad.append(f"not associative at ({a!r}, {b!r}, {c!r})")
    if set(weight) != set(nonzero):
        return bad + ["weight not defined exactly on the nonbasepoint elements"]
    if any(not isinstance(weight[a], int) or weight[a] < 0 for a in nonzero):
        return bad + ["weights must be nonnegative integers"]
    if weight[one] != 0:
        bad.append("unit does not have weight 0")
    for a in nonzero:
        for b in nonzero:
            ab = table[a, b]
            if ab != zero and weight[ab] != weight[a] + weight[b]:
                bad.append(f"weight not additive at ({a!r}, {b!r})")
    return bad


def test_truncated_products():
    bar = CyclicBar(3)
    assert product(bar, 0, 2) == 2
    assert product(bar, 1, 1) == 2
    assert product(bar, 1, 2) is BASEPOINT
    assert product(bar, 2, 2) is BASEPOINT
    # the wrap-around face d_1 multiplies the same two entries
    for k in K_RANGE:
        bar = CyclicBar(k)
        for a in range(k):
            for b in range(k):
                assert bar.face((a, b), 1) == bar.face((b, a), 0)


def test_element_layout():
    # products of exponents are exponents or the basepoint; 0 is the unit
    for k in K_RANGE:
        bar = CyclicBar(k)
        for a in range(k):
            assert product(bar, 0, a) == a
            for b in range(k):
                ab = product(bar, a, b)
                assert ab is BASEPOINT or ab in range(k)


def test_basepoint_survives_pickling():
    assert repr(BASEPOINT) == "BASEPOINT"
    assert pickle.loads(pickle.dumps(BASEPOINT)) is BASEPOINT
    assert pickle.loads(pickle.dumps((BASEPOINT, (0, 1))))[0] is BASEPOINT


def test_weights():
    bar = CyclicBar(5)
    for a in range(5):
        for b in range(5):
            f = bar.face((a, b), 0)
            if a + b < 5:
                assert simplex_weight(f) == a + b
            else:
                assert simplex_weight(f) is None


def test_weight_additive_when_nonzero():
    for k in K_RANGE:
        bar = CyclicBar(k)
        for a in range(k):
            for b in range(k):
                ab = product(bar, a, b)
                assert (ab is BASEPOINT) == (a + b >= k)
                if ab is not BASEPOINT:
                    assert ab == a + b


def test_laws_exhaustively():
    for k in K_RANGE:
        assert law_violations(*pi_k_table(k)) == [], k


def test_rejects_small_truncation():
    for bad in (1, 0, -3, "2", 2.0):
        with pytest.raises(ValueError):
            CyclicBar(bad)


def test_unknown_elements_rejected():
    bar = CyclicBar(3)
    with pytest.raises(ValueError):
        bar.face((3, 1), 0)
    with pytest.raises(ValueError):
        bar.face((1, -1), 0)
    with pytest.raises(ValueError):
        bar.face((7, 0, 1), 2)
    with pytest.raises(ValueError):
        bar.face((0, 1, 5), 1)


# --- the law oracle rejects broken tables ---------------------------------


def test_validation_accepts_good_table():
    assert law_violations(*pi_k_table(2)) == []


def test_validation_rejects_broken_absorption():
    els, table, weight = pi_k_table(2)
    table[BASEPOINT, 1] = 1
    assert law_violations(els, table, weight)


def test_validation_rejects_broken_unit():
    els, table, weight = pi_k_table(2)
    table[0, 1] = 0
    assert law_violations(els, table, weight)


def test_validation_rejects_noncommutative():
    els, table, weight = pi_k_table(2)
    table[1, 0] = BASEPOINT
    assert law_violations(els, table, weight)


def test_validation_rejects_nonassociative():
    # a*a = e is associative but breaks weight additivity (0 != 2); the
    # point is that such a table never passes
    els = [BASEPOINT, "e", "a"]
    table = {}
    for x in els:
        table[x, BASEPOINT] = BASEPOINT
        table[BASEPOINT, x] = BASEPOINT
        table[x, "e"] = x
        table["e", x] = x
    table["a", "a"] = "e"
    assert law_violations(els, table, {"e": 0, "a": 1})
    # and a genuinely nonassociative one: (1*1)*2 = 3, 1*(1*2) = basepoint
    els, table, weight = pi_k_table(4)
    table[1, 1] = 1
    assert any("associative" in v for v in law_violations(els, table, weight))


def test_validation_rejects_partial_table():
    els, table, weight = pi_k_table(2)
    del table[1, 1]
    assert law_violations(els, table, weight)


def test_validation_rejects_bad_weights():
    els, table, _ = pi_k_table(2)
    assert law_violations(els, table, {0: 0})
    assert law_violations(els, table, {0: 0, 1: -1})
    assert law_violations(els, table, {0: 1, 1: 1})


def test_truncated_weight_additivity_violation_detected():
    els, table, weight = pi_k_table(3)
    weight[2] = 5
    assert law_violations(els, table, weight)
