import copy
import pickle
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

import cycbar.tate_tp as tate_tp
from cycbar.homology import (
    ZERO_GROUP,
    AbelianGroup,
    expected_reduced_homology,
    lambda_dim,
)
from cycbar.tate_tp import (
    PRIME_BOUND,
    CyclicFactor,
    _exponent,
    _exponent_block,
    _is_prime,
    _require_prime,
    exponent_sup,
    nil_invariance_report,
    p_adic_valuation,
    relative_tp,
    tate_cpn_homotopy,
    weight_piece_exponent,
    weight_piece_tp,
)

Z = AbelianGroup.free(1)


def test_valuation_examples():
    assert p_adic_valuation(2, 8) == 3
    assert p_adic_valuation(2, 12) == 2
    assert p_adic_valuation(3, 9) == 2
    assert p_adic_valuation(5, 7) == 0
    assert p_adic_valuation(7, 7) == 1


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic_valuation(2, 0)
    with pytest.raises(ValueError):
        p_adic_valuation(2, -4)
    with pytest.raises(ValueError):
        p_adic_valuation(4, 8)
    with pytest.raises(ValueError):
        p_adic_valuation(1, 3)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _accepts_prime(p):
    try:
        _require_prime(p)
    except ValueError:
        return False
    return True


def test_prime_check_agrees_with_trial_division():
    assert all(
        _accepts_prime(n) == _trial_division_is_prime(n) for n in range(-2, 20000)
    )


def test_prime_check_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="composite"):
            _require_prime(n)
    assert _accepts_prime(10**18 + 3)
    assert _accepts_prime(2**61 - 1)


def test_prime_check_refuses_beyond_its_bound():
    for p in (PRIME_BOUND, PRIME_BOUND + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            _require_prime(p)
    # the bound is the least composite that passes all 13 bases
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(PRIME_BOUND)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 400), st.integers(1, 400))
def test_valuation_additive(p, a, b):
    assert p_adic_valuation(p, a * b) == p_adic_valuation(p, a) + p_adic_valuation(p, b)


def test_lambda_dim_table():
    assert lambda_dim(1, 2) == 0
    assert lambda_dim(2, 2) == 0
    assert lambda_dim(3, 2) == 1
    assert lambda_dim(5, 2) == 2
    assert lambda_dim(12, 3) == 3
    assert lambda_dim(13, 3) == 4
    with pytest.raises(ValueError):
        lambda_dim(0, 2)
    with pytest.raises(ValueError):
        lambda_dim(3, 1)


def test_tate_homotopy_parity():
    for j in (-4, -2, 0, 2, 6):
        assert tate_cpn_homotopy(3, 2, j) == AbelianGroup.cyclic(9)
    for j in (-3, -1, 1, 5):
        assert tate_cpn_homotopy(3, 2, j) == ZERO_GROUP
    assert tate_cpn_homotopy(2, 1, 0) == AbelianGroup.cyclic(2)
    # n = 0 gives the zero module in every degree
    assert tate_cpn_homotopy(2, 0, 0) == ZERO_GROUP
    with pytest.raises(ValueError):
        tate_cpn_homotopy(6, 1, 0)
    with pytest.raises(ValueError):
        tate_cpn_homotopy(2, -1, 0)


def test_weight_piece_examples():
    assert weight_piece_tp(2, 3, 4, 1).group == AbelianGroup.cyclic(4)
    assert weight_piece_tp(2, 3, 6, 1).group == ZERO_GROUP  # v_2(3) = 0
    assert weight_piece_tp(2, 3, 4, 2).group == ZERO_GROUP  # even degree
    f = weight_piece_tp(3, 9, 9, 1)
    assert f.group == AbelianGroup.cyclic(9)
    assert f.multiple_of_k
    assert not f.is_trivial
    assert weight_piece_tp(2, 4, 6, 1).exponent == 1  # 6 off the multiples of 4


def test_weight_piece_exponent_rule():
    # independent scan: recompute valuations by brute force
    def val(p, n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    for p in (2, 3):
        for k in (2, 3, 4, 9):
            for i in range(1, 40):
                want = val(p, k) if i % k == 0 else val(p, i)
                assert weight_piece_exponent(p, k, i) == want


def _block_windows(p):
    """Windows (start, stop) at block starts and astride each power of p below 20,000."""
    starts = {1, 1024 + 1, 3 * 1024 + 1}
    q = p
    while q < 20000:
        starts |= {q - 1, q, q + 1, max(1, q - 1022), max(1, q - 1023)}
        q *= p
    return [(a, a + n) for a in sorted(starts) for n in (1, 1023, 1024)]


def _exponent_keys(p, k, a, b):
    return [(_exponent(p, k, i), i % k == 0) for i in range(a, b)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exponent_block_agrees_with_exponent(p):
    # every k in 2..40 meets k = p^r, k = p^r * m and p not dividing k;
    # the windows start at 1, at 1024 n + 1 and next to each power of p
    windows = _block_windows(p)
    for k in range(2, 41):
        for a, b in windows:
            assert _exponent_block(p, k, a, b) == _exponent_keys(p, k, a, b), (k, a, b)


def test_exponent_block_at_a_large_prime():
    # no power of p falls in the first windows; the last holds p itself
    p = 999999999989
    for k in (2, 3, 6, 12, p, 2 * p):
        for a, b in ((1, 2), (1, 1024), (1, 1025), (1025, 2049), (p - 1000, p + 24)):
            assert _exponent_block(p, k, a, b) == _exponent_keys(p, k, a, b), (k, a, b)
    assert _exponent_block(p, 6, 5, 5) == []


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 999999999989]),
    st.integers(2, 200),
    st.integers(1, 10**6),
    st.integers(0, 1024),
)
def test_exponent_block_random_windows(p, k, a, n):
    assert _exponent_block(p, k, a, a + n) == _exponent_keys(p, k, a, a + n)


def test_weight_piece_exponent_rejects_bad_input():
    # weight 0 and negative weights are multiples of every k, so the
    # weight check must come before the two-case rule
    for p, k, i in ((2, 3, 0), (2, 3, -3), (4, 3, 1), (2, 1, 1)):
        with pytest.raises(ValueError):
            weight_piece_exponent(p, k, i)


def test_relative_tp_frozen_lists():
    rep = relative_tp(2, 3, 1, 10)
    assert [f.exponent for f in rep.factors] == [0, 1, 0, 2, 0, 0, 0, 3, 0, 1]
    rep = relative_tp(2, 4, 1, 8)
    assert [f.exponent for f in rep.factors] == [0, 1, 0, 2, 0, 1, 0, 2]
    rep = relative_tp(3, 9, 1, 12)
    nonzero = {f.weight: f.exponent for f in rep.factors if f.exponent}
    assert nonzero == {3: 1, 6: 1, 9: 2, 12: 1}


def test_cyclic_factor_is_a_frozen_slotted_value():
    # slots keep a 100k-factor table small; pickling, copying and the
    # constructor must still give equal, equally hashed values
    f = relative_tp(2, 6, 1, 12).factors[-1]
    assert (f.weight, f.exponent, f.multiple_of_k) == (12, 1, True)
    assert not hasattr(f, "__dict__")
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f and hash(g) == hash(f)
        assert g.group == f.group
    assert CyclicFactor(f.p, f.weight, 2, f.multiple_of_k).order == 4
    with pytest.raises(AttributeError, match="cannot assign to field 'exponent'"):
        f.exponent = 3
    assert f.exponent == 1


def test_relative_tp_even_degree_vanishes():
    rep = relative_tp(2, 3, 4, 10)
    assert rep.factors == ()
    assert not rep.truncated
    rep = relative_tp(2, 3, 1, 10)
    assert rep.truncated
    assert len(rep.factors) == 10


def test_relative_tp_two_periodic():
    a = relative_tp(2, 6, 1, 15)
    b = relative_tp(2, 6, 3, 15)
    c = relative_tp(2, 6, -1, 15)
    assert a.factors == b.factors == c.factors


def test_relative_tp_rejects_bad_input():
    with pytest.raises(ValueError):
        relative_tp(4, 3, 1, 5)
    with pytest.raises(ValueError):
        relative_tp(2, 1, 1, 5)
    with pytest.raises(ValueError):
        relative_tp(2, 3, 1, 0)


@pytest.mark.parametrize("j", [1.0, 1.5, "1", "x", None])
def test_degree_must_be_an_integer(j):
    for call in (
        lambda: relative_tp(2, 3, j, 5),
        lambda: weight_piece_tp(2, 3, 2, j),
        lambda: tate_cpn_homotopy(2, 1, j),
    ):
        with pytest.raises(ValueError, match=f"degree must be an integer, got {j!r}"):
            call()


_BOOLEAN_CALLS = {
    "weight_piece_tp": [
        lambda: weight_piece_tp(2, 3, True, True),
        lambda: weight_piece_tp(2, 3, 2, True),
    ],
    "relative_tp": [
        lambda: relative_tp(2, 3, 1, True),
        lambda: relative_tp(2, 3, True, 5),
    ],
    "tate_cpn_homotopy": [
        lambda: tate_cpn_homotopy(2, True, 0),
        lambda: tate_cpn_homotopy(2, 1, False),
    ],
    "p_adic_valuation": [lambda: p_adic_valuation(2, True)],
    "lambda_dim": [lambda: lambda_dim(True, 3)],
}


@pytest.mark.parametrize("name", sorted(_BOOLEAN_CALLS))
def test_booleans_are_refused(name):
    # bool is a subclass of int, so each integer check must refuse it explicitly
    for call in _BOOLEAN_CALLS[name]:
        with pytest.raises(ValueError, match="got (True|False)$"):
            call()


def test_relative_tp_checks_the_prime_once(monkeypatch):
    calls = []
    real = tate_tp._is_prime
    monkeypatch.setattr(tate_tp, "_is_prime", lambda p: calls.append(p) or real(p))
    counts = []
    for truncation in (10, 1000):
        calls.clear()
        relative_tp(999999999989, 6, 1, truncation)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_nil_invariance_report_checks_the_prime_once(monkeypatch):
    calls = []
    real = tate_tp._is_prime
    monkeypatch.setattr(tate_tp, "_is_prime", lambda p: calls.append(p) or real(p))
    assert nil_invariance_report(999999999989, 6).exponent_sup is inf
    assert calls == [999999999989]


def test_expected_reduced_homology():
    assert expected_reduced_homology(1, 2) == {0: Z, 1: Z}
    assert expected_reduced_homology(5, 2) == {4: Z, 5: Z}
    assert expected_reduced_homology(7, 3) == {4: Z, 5: Z}
    assert expected_reduced_homology(4, 2) == {3: AbelianGroup.cyclic(2)}
    assert expected_reduced_homology(3, 3) == {1: AbelianGroup.cyclic(3)}
    assert expected_reduced_homology(12, 4) == {5: AbelianGroup.cyclic(4)}
    with pytest.raises(ValueError):
        expected_reduced_homology(0, 2)


def test_degree_offset_and_parity_share_lambda_dim():
    # the homological window {2d, 2d+1} ({2d+1} when k | i) and the
    # odd-degree rule are the same parity statement: j - 2d + 1 even iff
    # j odd, for the same d
    for k in (2, 3, 5):
        for i in range(1, 25):
            degrees = sorted(expected_reduced_homology(i, k))
            d2 = 2 * lambda_dim(i, k)
            assert degrees == ([d2 + 1] if i % k == 0 else [d2, d2 + 1])
            for j in range(-3, 4):
                factor = weight_piece_tp(2, k, i, j)
                allowed = (j - d2 + 1) % 2 == 0
                assert (factor.exponent > 0) <= allowed
                if not allowed:
                    assert factor.exponent == 0


def test_exponent_sup_values():
    assert exponent_sup(2, 8) == 3
    assert exponent_sup(2, 4) == 2
    assert exponent_sup(2, 2) == 1
    assert exponent_sup(3, 9) == 2
    assert exponent_sup(5, 5) == 1
    assert exponent_sup(2, 3) is inf
    assert exponent_sup(2, 12) is inf
    assert exponent_sup(3, 6) is inf


def test_exponent_sup_against_scan():
    # where the prime is small the 10k scan is decisive: bounded by the
    # valuation of k exactly when k is a pure prime power
    for p in (2, 3, 5):
        for k in list(range(2, 13)) + [2**8, 3**5, 5**3, 96, 250, 243 * 2]:
            r = p_adic_valuation(p, k)
            scan_max = max(
                weight_piece_exponent(p, k, i) for i in range(1, 10 * k + 1)
            )
            sup = exponent_sup(p, k)
            if k == p**r:
                assert sup == r == scan_max
            else:
                assert sup is inf
                assert scan_max > r


def test_nil_invariance_verdicts():
    rep = nil_invariance_report(2, 4)
    assert not rep.integral_iso
    assert rep.p_inverted_iso
    assert rep.exponent_sup == 2
    assert rep.witness_weight == 4
    assert rep.witness_exponent == 2

    rep = nil_invariance_report(2, 3)
    assert not rep.integral_iso
    assert not rep.p_inverted_iso
    assert rep.exponent_sup is inf
    assert rep.witness_weight == 2  # v_2(3) = 0, so the prime itself witnesses
    assert rep.witness_exponent == 1

    rep = nil_invariance_report(3, 6)
    assert rep.witness_weight == 6
    assert rep.witness_exponent == 1
    assert not rep.p_inverted_iso


def test_witness_weight_always_contributes():
    for p in (2, 3, 5):
        for k in range(2, 15):
            rep = nil_invariance_report(p, k)
            f = weight_piece_tp(p, k, rep.witness_weight, 1)
            assert f.exponent >= 1
            # the fallback witness (the prime itself) avoids multiples of k
            if k % p != 0:
                assert rep.witness_weight == p
                assert not f.multiple_of_k


def test_negative_cyclic_remark_present():
    rep = nil_invariance_report(2, 3)
    assert "negative cyclic" in rep.remark
    assert "\n" not in rep.remark


def test_p_power_detection_matches_verdict():
    for p in (2, 3):
        for k in range(2, 30):
            powers = set()
            q = p
            while q <= k:
                powers.add(q)
                q *= p
            assert nil_invariance_report(p, k).p_inverted_iso == (k in powers)
