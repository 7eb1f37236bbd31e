"""The benchmark's workloads: fixed item lists and the oracle for each item.

An item is one call a user makes, either a ``cycbar`` command line run
in-process through ``cycbar.cli.main`` or a call of the public library
API, plus a check of its output against ``oracles``.  Items look up
cycbar functions through their modules at call time, so the tracer in
``tracing.py`` sees every call it wraps.  Why each workload exists is in
``README.md``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import cycbar.cli
import cycbar.cyclic_bar
import cycbar.homology

import oracles


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """Run ``cycbar <argv>`` in this process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cycbar.cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad usage this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_tree(res, **json_options):
    """The parsed JSON report; a failed run raises ValueError."""
    if res.code != 0:
        raise ValueError(f"exit code {res.code}: {res.stderr.strip()[:200]}")
    return json.loads(res.stdout, **json_options)


def _group_problems(where, node, want):
    rank, torsion = want
    got = (node["rank"], tuple(node["torsion"]))
    if got != want or node["name"] != oracles.group_name(rank, torsion):
        return [f"{where}: got {node['name']}, closed form {oracles.group_name(rank, torsion)}"]
    return []


# -- closed_form_scan -------------------------------------------------------


def homology_item(k, i):
    argv = ["homology", "--k", str(k), "--i", str(i), "--format", "json"]

    def check(res):
        (entry,) = _cli_tree(res)["components"]
        rows = entry["degrees"]
        problems = []
        if entry["i"] != i or [r["degree"] for r in rows] != list(range(len(rows))):
            problems.append(f"weight {entry['i']} or degree list {len(rows)} wrong")
        cells = oracles.trimmed(oracles.cell_counts(k, i))
        if [r["basis_size"] for r in rows] != cells:
            problems.append(f"basis sizes differ from the count {cells}")
        form = oracles.closed_form(k, i)
        for r in rows:
            want = form.get(r["degree"], (0, ()))
            problems += _group_problems(f"degree {r['degree']}", r["homology"], want)
        return problems

    return Item(f"homology k={k} i={i}", lambda: run_cli(argv), check)


def verify_item(k, max_i):
    argv = ["verify", "--k", str(k), "--max-i", str(max_i), "--format", "json"]

    def check(res):
        tree = _cli_tree(res)
        problems = [] if tree["ok"] is True else ["verify did not report ok"]
        weights = [e["i"] for e in tree["weight_pieces"]]
        coprime = [i for i in range(1, max_i + 1) if i % k]
        if not set(coprime) <= set(weights) <= set(range(1, max_i + 1)):
            problems.append(f"weights checked {weights}")
        for e in tree["weight_pieces"]:
            if not e["match"] or e["mismatched_degrees"]:
                problems.append(f"i={e['i']} reported as mismatch")
            computed = {
                r["degree"]: (r["computed"]["rank"], tuple(r["computed"]["torsion"]))
                for r in e["degrees"]
                if r["computed"]["rank"] or r["computed"]["torsion"]
            }
            if computed != oracles.closed_form(k, e["i"]):
                problems.append(f"i={e['i']}: computed {computed}")
        euler = tree["euler"]
        if [e["i"] for e in euler] != list(range(1, max_i + 1)) or any(
            e["alternating_count"] != 0 or not e["ok"] for e in euler
        ):
            problems.append("alternating counts not all zero")
        ids = tree["identities"]
        cells = sum(sum(oracles.cell_counts(k, i)) for i in range(max_i + 1))
        if ids["violations"] or ids["simplices_checked"] != cells:
            problems.append(f"identities: {ids['simplices_checked']} checked, want {cells}")
        return problems

    return Item(f"verify k={k} max_i={max_i}", lambda: run_cli(argv), check)


# -- large_weight_checks ----------------------------------------------------


def large_item(k, i):
    """Enumerate, build, d∘d and the alternating count for one big weight."""

    def run():
        wc = cycbar.cyclic_bar.CyclicBar(k).enumerate_weight_component(i)
        cx = cycbar.homology.chain_complex(wc)
        return wc.degree_counts(), cx.dimensions(), cx.boundary_composes_to_zero(), wc.alternating_count()

    def check(out):
        counts, dims, dd_zero, alternating = out
        cells = oracles.trimmed(oracles.cell_counts(k, i))
        problems = [] if counts == cells == dims else [f"cells {counts} / {dims}, want {cells}"]
        if not dd_zero:
            problems.append("boundary does not square to zero")
        if alternating != 0:
            problems.append(f"alternating count {alternating}")
        return problems

    return Item(f"large k={k} i={i}", run, check)


def identities_item(k, max_weight):
    def check(out):
        checked, violations = out
        cells = sum(sum(oracles.cell_counts(k, i)) for i in range(max_weight + 1))
        problems = [f"{len(violations)} identity violations"] if violations else []
        if checked != cells:
            problems.append(f"{checked} simplices checked, want {cells}")
        return problems

    return Item(
        f"identities k={k} max_weight={max_weight}",
        lambda: cycbar.cyclic_bar.identity_report(k, max_weight),
        check,
    )


def closure_item(k, i):
    """The generated-closure route against plain enumeration."""

    def run():
        bar = cycbar.cyclic_bar.CyclicBar(k)
        generated = bar.generated_cyclic_subset(i)
        enumerated = bar.enumerate_weight_component(i)
        return generated.simplices_by_degree == enumerated.simplices_by_degree, generated.degree_counts()

    def check(out):
        same, counts = out
        cells = oracles.trimmed(oracles.cell_counts(k, i))
        problems = [] if same else ["closure differs from enumeration"]
        if counts != cells:
            problems.append(f"closure cells {counts}, want {cells}")
        return problems

    return Item(f"closure k={k} i={i}", run, check)


# -- arith_verdicts ---------------------------------------------------------


def _verdict_problems(node, p, k):
    got = {key: value for key, value in node.items() if key != "remark"}
    want = oracles.verdict(p, k)
    return [] if got == want else [f"verdicts {got}, want {want}"]


def verdict_item(p, k):
    argv = ["verdict", "--p", str(p), "--k", str(k), "--format", "json"]

    def check(res):
        return _verdict_problems(_cli_tree(res)["verdicts"], p, k)

    return Item(f"verdict p={p} k={k}", lambda: run_cli(argv), check)


FACTOR_KEYS = frozenset(("exponent", "group", "i", "k_divides_i", "order"))


def tp_item(p, k, j, truncate):
    """One odd degree of the relative theory, checked factor by factor."""
    argv = ["tp", "--p", str(p), "--k", str(k), "--j", str(j), "--truncate", str(truncate), "--format", "json"]

    def check(res):
        problems = []
        seen = 0

        def factor(node):
            # checked as parsed and dropped, so the oracle's memory stays
            # small next to the program's own peak
            nonlocal seen
            if node.keys() != FACTOR_KEYS:
                return node
            seen += 1
            e = oracles.factor_exponent(p, k, seen)
            want = {
                "i": seen,
                "k_divides_i": seen % k == 0,
                "exponent": e,
                "order": p**e,
                "group": "0" if e == 0 else f"Z/{p**e}",
            }
            if node != want and len(problems) < 5:
                problems.append(f"factor {node}, want {want}")
            return None

        tree = _cli_tree(res, object_hook=factor)
        if seen != truncate or len(tree["factors"]) != truncate:
            problems.append(f"{seen} factors, want {truncate}")
        if tree["parity"] != "odd" or tree["truncated"] is not True:
            problems.append("odd degree must be a truncated product")
        return problems + _verdict_problems(tree["verdicts"], p, k)

    return Item(f"tp p={p} k={k} j={j} truncate={truncate}", lambda: run_cli(argv), check)


VERDICT_PAIRS = (
    (2, 2**18),
    (5, 5**8),
    (3, 3**11),
    (10**12 + 39, 2),
    (999999999989, 6),
    (2, 12),
    (3, 10**6),
)

WORKLOADS = {
    "closed_form_scan": lambda: [homology_item(5, i) for i in range(1, 13)] + [verify_item(3, 15)],
    "large_weight_checks": lambda: [
        large_item(5, 15),
        large_item(4, 16),
        identities_item(5, 12),
        closure_item(4, 9),
    ],
    "arith_verdicts": lambda: [verdict_item(p, k) for p, k in VERDICT_PAIRS] + [tp_item(2, 6, 1, 100000)],
}

# The same item kinds at sizes that run in about a second, for the tests.
SMALL_WORKLOADS = {
    "closed_form_scan": lambda: [homology_item(3, i) for i in range(1, 7)] + [verify_item(3, 6)],
    "large_weight_checks": lambda: [large_item(3, 8), identities_item(3, 6), closure_item(3, 6)],
    "arith_verdicts": lambda: [verdict_item(2, 16), verdict_item(5, 6), tp_item(2, 6, 1, 500)],
}
