"""Acceptance gate: every criterion at its stated (exact) tolerance.

One test per criterion; each prints a single pass/fail line, so running

    pytest tests/test_acceptance.py -v -s

shows the whole scorecard at a glance.  The minor-gcd Smith form oracle
is duplicated here on purpose: the gate stays self-contained.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from math import gcd, inf

import pytest

from cycbar import (
    AbelianGroup,
    CyclicBar,
    chain_complex,
    homology_groups,
    identity_report,
    lambda_dim,
    nil_invariance_report,
    smith_normal_form,
)

Z = AbelianGroup.free(1)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def scan():
    """Homology of every weight component k in {2..5}, i in {0..12}."""
    t0 = time.perf_counter()
    data = {}
    for k in (2, 3, 4, 5):
        bar = CyclicBar(k)
        for i in range(0, 13):
            cx = chain_complex(bar.enumerate_weight_component(i))
            data[k, i] = (cx, homology_groups(cx))
    return data, time.perf_counter() - t0


def test_criterion_1_sphere_smash_homology_scan(scan):
    data, elapsed = scan
    pieces = 0
    for (k, i), (_, groups) in data.items():
        if i < 1:
            continue
        pieces += 1
        d2 = 2 * lambda_dim(i, k)
        want = {d2 + 1: AbelianGroup.cyclic(k)} if i % k == 0 else {d2: Z, d2 + 1: Z}
        got = {l: g for l, g in groups.items() if not g.is_trivial}
        assert got == want, (k, i, got)
    ok = pieces == 48 and elapsed < 60.0
    _line(
        1,
        ok,
        f"{pieces} weight pieces match Z at degrees 2d and 2d+1, "
        f"or Z/k at degree 2d+1 when k | i ({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_k2_i2_torsion_fixture(scan):
    data, _ = scan
    _, groups = data[2, 2]
    nonzero = {l: g for l, g in groups.items() if not g.is_trivial}
    ok = nonzero == {1: AbelianGroup.cyclic(2)}
    _line(2, ok, f"k=2, i=2 has exactly H_1 = Z/2 (got {nonzero})")


def test_criterion_3_operator_identities():
    total = 0
    bad = []
    for k in (2, 3, 4, 5):
        checked, violations = identity_report(k, 10)
        total += checked
        bad.extend(violations)
    _line(3, not bad, f"{total} simplices, {len(bad)} identity violations")


def test_criterion_4_boundary_squares_to_zero(scan):
    data, _ = scan
    failures = [key for key, (cx, _) in data.items() if not cx.boundary_composes_to_zero()]
    _line(4, not failures, f"{len(data)} complexes, {len(failures)} with d*d != 0")


def test_criterion_5_alternating_counts():
    bad = []
    for k in (2, 3, 4, 5):
        bar = CyclicBar(k)
        for i in range(1, 21):
            if bar.enumerate_weight_component(i).alternating_count() != 0:
                bad.append((k, i))
    _line(5, not bad, f"k <= 5, i <= 20: {len(bad)} nonzero alternating counts")


def test_criterion_6_generated_equals_enumerated():
    bad = []
    for k in (2, 3, 4):
        bar = CyclicBar(k)
        for i in range(1, 9):
            if bar.generated_cyclic_subset(i) != bar.enumerate_weight_component(i):
                bad.append((k, i))
    _line(6, not bad, f"k <= 4, i <= 8: {len(bad)} components differ between routes")


def test_criterion_7_cli_tp_table():
    cmd = [
        sys.executable, "-m", "cycbar.cli", "tp",
        "--p", "2", "--k", "3", "--j", "1", "--truncate", "10",
        "--format", "json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    tree = json.loads(proc.stdout)
    exponents = [f["exponent"] for f in tree["factors"]]
    even = subprocess.run(
        cmd[:9] + ["2"] + cmd[10:], capture_output=True, text=True
    )
    even_tree = json.loads(even.stdout)
    ok = (
        proc.returncode == 0
        and exponents == [0, 1, 0, 2, 0, 0, 0, 3, 0, 1]
        and even.returncode == 0
        and even_tree["factors"] == []
    )
    _line(7, ok, f"cli tp exponents {exponents}, even degree vanishes")


def test_criterion_8_verdict_matrix():
    p_power_truth = {2: {2, 4, 8}, 3: {3, 9}}
    bad = []
    for p in (2, 3):
        for k in range(2, 10):
            rep = nil_invariance_report(p, k)
            if rep.integral_iso:
                bad.append((p, k, "integral"))
            if rep.p_inverted_iso != (k in p_power_truth[p]):
                bad.append((p, k, "p-inverted"))
            if rep.p_inverted_iso != (rep.exponent_sup is not inf):
                bad.append((p, k, "sup"))
    _line(8, not bad, f"16 verdicts, {len(bad)} wrong entries")


# self-contained copy of the minor-gcd oracle


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


def _snf_by_minor_gcd(matrix):
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


def test_criterion_9_snf_against_minor_gcd_oracle():
    rng = random.Random(12345)
    mismatches = 0
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if smith_normal_form(a) != _snf_by_minor_gcd(a):
            mismatches += 1
    _line(9, mismatches == 0, f"200 random matrices, {mismatches} disagreements")
