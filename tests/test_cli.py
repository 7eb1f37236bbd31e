import argparse
import concurrent.futures
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycbar.cli
import cycbar.homology
import cycbar.tate_tp as tate_tp
from cycbar.cli import UsageError, _parse_weight_range, _worker_count, main
from cycbar.cyclic_bar import CyclicBar, WeightComponent, cell_counts
from cycbar.homology import ChainComplex
from cycbar.tate_tp import relative_tp

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weight_range_parsing():
    assert _parse_weight_range("7") == (7, 7)
    assert _parse_weight_range("1..12") == (1, 12)
    assert _parse_weight_range(" 3..3 ") == (3, 3)
    for bad in ("abc", "5..2", "-1", "1..x", ".."):
        with pytest.raises(UsageError):
            _parse_weight_range(bad)


def test_homology_text(capsys):
    code, out, err = run(capsys, "homology", "--k", "2", "--i", "3")
    assert code == 0
    assert err == ""
    assert "weight component k=2, i=3" in out
    lines = [l.strip() for l in out.splitlines()]
    assert "2      1  Z" in lines
    assert "3      1  Z" in lines


def test_homology_weight_zero(capsys):
    code, out, _ = run(capsys, "homology", "--k", "3", "--i", "0")
    assert code == 0
    assert "i=0" in out and "Z" in out


def test_homology_json_round_trip(capsys):
    code, out, _ = run(capsys, "homology", "--k", "2", "--i", "1..3", "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert tree == json.loads(json.dumps(tree))
    assert tree["command"] == "homology"
    assert tree["config"] == {"k": 2, "i_min": 1, "i_max": 3}
    assert [c["i"] for c in tree["components"]] == [1, 2, 3]
    piece = tree["components"][1]
    assert piece["degrees"][1]["homology"] == {
        "rank": 0,
        "torsion": [2],
        "name": "Z/2",
    }


def test_output_is_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "tp", "--p", "2", "--k", "3", "--j", "1",
            "--truncate", "10", "--format", "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verdict", "--p", "2", "--k", "4",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    tree = json.loads(target.read_text())
    assert tree["verdicts"]["p_inverted_iso"] is True


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--max-i", "7")
    assert code == 0
    assert "overall: PASS" in out
    assert "0 violations" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "2", "--max-i", "5", "--format", "json"
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["ok"] is True
    assert [w["i"] for w in tree["weight_pieces"]] == [1, 2, 3, 4, 5]
    assert all(w["match"] for w in tree["weight_pieces"])
    assert all(e["alternating_count"] == 0 for e in tree["euler"])
    assert tree["identities"]["violations"] == []
    assert tree["identities"]["simplices_checked"] > 0


def test_verify_with_jobs_matches_serial(capsys):
    # weights 0..9 of k=3 hold 1 to 110 cells, so the workers finish out of order
    argv = ("verify", "--k", "3", "--max-i", "9", "--format", "json")
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def _two_cpus(monkeypatch):
    # the pool route is taken whatever the host's CPU count
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_verify_fans_out_by_default_with_the_serial_bytes(capsys, monkeypatch):
    # weights 0..13 of k=3 weigh 1,544,762, above VERIFY_FAN_OUT_WORK
    _two_cpus(monkeypatch)
    made = []
    pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor", lambda max_workers: made.append(max_workers) or pool(max_workers)
    )
    for fmt in ("text", "json"):
        argv = ("verify", "--k", "3", "--max-i", "13", "--format", fmt)
        fanned, serial = run(capsys, *argv), run(capsys, *argv, "--jobs", "1")
        assert fanned == serial and fanned[0] == 0
    assert made == [2, 2]


def test_verify_below_the_fan_out_work_starts_no_pool(capsys, monkeypatch):
    # weights 0..7 of k=3 weigh 13,946
    _two_cpus(monkeypatch)

    def refused(max_workers):
        raise AssertionError("no pool below VERIFY_FAN_OUT_WORK")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refused)
    code, out, _ = run(capsys, "verify", "--k", "3", "--max-i", "7")
    assert code == 0 and out == (GOLDEN / "verify_k3_max7.txt").read_text()


@pytest.mark.parametrize("error", [OSError, NotImplementedError])
def test_verify_runs_serially_where_no_pool_starts(capsys, monkeypatch, error):
    # a platform without working semaphores or fork refuses the pool itself
    _two_cpus(monkeypatch)

    def refused(max_workers):
        raise error("no pool here")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refused)
    argv = ("verify", "--k", "3", "--max-i", "13", "--format", "json")
    default, serial = run(capsys, *argv), run(capsys, *argv, "--jobs", "1")
    assert default == serial and default[0] == 0
    assert run(capsys, *argv, "--jobs", "2") == serial


def test_run_jobs_feeds_the_pool_heaviest_first(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers, self.exited = max_workers, False
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.exited = True

        def map(self, fn, items):
            self.items = list(items)
            return map(fn, self.items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    assert cycbar.cli._run_jobs(str, range(5), 8) == ["0", "1", "2", "3", "4"]
    (pool,) = pools
    assert (pool.max_workers, pool.items, pool.exited) == (3, [4, 3, 2, 1, 0], True)
    # one worker, or one item, runs here in item order
    assert cycbar.cli._run_jobs(str, range(3), 1) == ["0", "1", "2"]
    assert cycbar.cli._run_jobs(str, [7], 8) == ["7"]
    assert len(pools) == 1


def test_verify_enumerates_each_weight_once(capsys, monkeypatch):
    calls = []
    enumerate_weight_component = CyclicBar.enumerate_weight_component

    def counted(bar, i, *args, **kwargs):
        calls.append(i)
        return enumerate_weight_component(bar, i, *args, **kwargs)

    monkeypatch.setattr(CyclicBar, "enumerate_weight_component", counted)
    code, _, _ = run(capsys, "verify", "--k", "3", "--max-i", "7")
    assert code == 0
    assert calls == list(range(8))


def _traced_peak(fn):
    # garbage of earlier tests collected first, so the peak is fn's alone
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weight_check_runs_the_identity_suite_before_the_build(monkeypatch):
    # the suite's image caches peak with no complex alive; elimination and
    # the Smith form, which need the complex, are left out of both peaks
    monkeypatch.setattr(cycbar.cli, "_verify_entry", lambda cx: None)

    def build_first(k, i):
        bar = CyclicBar(k)
        wc = bar.enumerate_weight_component(i)
        cx = cycbar.cli.chain_complex(wc)
        return cx, cycbar.cli.weight_identity_violations(bar, wc)

    # 2.67 against 3.38 MB when measured (Python 3.11)
    assert _traced_peak(lambda: cycbar.cli._weight_check(4, 12)) < _traced_peak(lambda: build_first(4, 12))


def test_selftest_computes_each_weight_once(capsys, monkeypatch):
    enumerated, built = [], []
    enumerate_weight_component = CyclicBar.enumerate_weight_component

    def counted_enumerate(bar, i):
        enumerated.append((bar.k, i))
        return enumerate_weight_component(bar, i)

    # wrapped wherever it is looked up, so a build inside the library counts
    for module in (cycbar.cli, cycbar.homology):
        build = module.chain_complex

        def counted_build(wc, build=build):
            built.append((wc.k, wc.i))
            return build(wc)

        monkeypatch.setattr(module, "chain_complex", counted_build)
    monkeypatch.setattr(CyclicBar, "enumerate_weight_component", counted_enumerate)
    code, _, _ = run(capsys, "selftest")
    assert code == 0
    weights = [(k, i) for k in (2, 3, 4) for i in range(11)]
    assert enumerated == built == weights


def test_jobs_only_where_weights_fan_out(capsys):
    # homology takes milliseconds per weight, so only verify has --jobs
    for argv in (
        ["homology", "--k", "2", "--i", "1"],
        ["tp", "--p", "2", "--k", "3", "--j", "1", "--truncate", "5"],
        ["verdict", "--p", "2", "--k", "4"],
        ["selftest"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
    assert run(capsys, "verify", "--k", "2", "--max-i", "1", "--jobs", "0")[0] == 2


def test_homology_enumerates_and_reduces_nothing(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("homology must not enumerate, build or reduce")

    monkeypatch.setattr(CyclicBar, "enumerate_weight_component", refused)
    for module in (cycbar.cli, cycbar.homology):
        for name in ("chain_complex", "homology_groups", "smith_normal_form"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    code, out, _ = run(capsys, "homology", "--k", "5", "--i", "1..12", "--format", "json")
    assert code == 0
    assert [c["i"] for c in json.loads(out)["components"]] == list(range(1, 13))


def test_homology_large_weight(capsys):
    # 3.6e28 cells: 5 | 100, so d = 19 and the only group is Z/5 in degree 2d+1
    code, out, _ = run(capsys, "homology", "--k", "5", "--i", "100", "--format", "json")
    assert code == 0
    (entry,) = json.loads(out)["components"]
    rows = entry["degrees"]
    assert [r["degree"] for r in rows] == list(range(101))
    assert [r["basis_size"] for r in rows] == cell_counts(5, 100)
    assert {r["degree"]: r["homology"]["name"] for r in rows if r["homology"]["name"] != "0"} == {39: "Z/5"}


def test_homology_refuses_a_long_morse_flow(capsys, monkeypatch):
    # k=5, i=15..16: 100 + 113 = 213 count entries, then walks of 224 and 256
    # faces, 693 steps in all; the run is refused where its one budget runs out
    monkeypatch.setattr(cycbar.cli, "MORSE_FLOW_BUDGET", 693)
    assert run(capsys, "homology", "--k", "5", "--i", "15..16")[0] == 0
    monkeypatch.setattr(cycbar.cli, "MORSE_FLOW_BUDGET", 692)
    assert run(capsys, "homology", "--k", "5", "--i", "15..16") == (
        2, "", "error: homology --k 5 --i 15..16 takes more than its 692 steps: "
        "count entries and walked faces pass them at weight 16\n",
    )
    monkeypatch.setattr(cycbar.cli, "MORSE_FLOW_BUDGET", 436)
    code, out, err = run(capsys, "homology", "--k", "5", "--i", "15..16")
    assert (code, out) == (2, "") and err.endswith("at weight 15\n")


def test_homology_budget_spans_the_run(capsys):
    # k=5 admits weight 150 alone, but weights 0..150 together run out at weight 95;
    # k=2 walks two cells per weight, so its rows set its edge
    assert run(capsys, "homology", "--k", "5", "--i", "0..150") == (
        2, "", "error: homology --k 5 --i 0..150 takes more than its 3000000 steps: "
        "count entries and walked faces pass them at weight 95\n",
    )
    code, out, _ = run(capsys, "homology", "--k", "2", "--i", "0..200", "--format", "json")
    assert code == 0
    assert [c["i"] for c in json.loads(out)["components"]] == list(range(201))


def test_homology_refuses_above_the_count_budget_before_starting(capsys, monkeypatch):
    # every weight's count, the entries of its bands, is charged before any weight
    # starts, so a range whose counts alone pass the budget neither counts nor walks
    started = []
    monkeypatch.setattr(cycbar.cli, "cell_counts", lambda k, i: started.append(i) or [])
    monkeypatch.setattr(cycbar.cli, "_morse_walk", lambda k, i, left: (started.append(i) or {}, left))
    code, out, err = run(capsys, "homology", "--k", "100000", "--i", "99999")
    assert (code, out, started) == (2, "", [])
    assert err == (
        "error: homology --k 100000 --i 99999 takes more than its 3000000 steps: "
        "count entries alone pass them at weight 99999\n"
    )
    # degree l of weight i fills min(i, l(k-1)) - l + 1 entries: at k=3, weight 3462
    # fills 2999824 and is admitted, 3463 is not; at k=5, weights 0..286 fill 2980800
    # and 0..287 fill 3011976
    assert run(capsys, "homology", "--k", "3", "--i", "3463")[0] == 2
    assert run(capsys, "homology", "--k", "5", "--i", "0..287")[0] == 2
    code, _, err = run(capsys, "homology", "--k", "5", "--i", "0..10000000000000000000000")
    assert code == 2 and err.endswith("count entries alone pass them at weight 287\n")
    assert started == []
    assert run(capsys, "homology", "--k", "3", "--i", "3462")[0] == 0
    assert started == [3462, 3462]
    started.clear()
    assert run(capsys, "homology", "--k", "5", "--i", "0..286")[0] == 0
    assert len(started) == 2 * 287


def test_homology_count_charge_is_the_band_sum():
    for k in range(2, 8):
        for i in range(60):
            bands = sum(max(0, min(i, l * (k - 1)) - l + 1) for l in range(i + 1))
            assert cycbar.cli._count_entries(k, i) == bands, (k, i)


def test_homology_refuses_above_the_row_limit_before_starting(capsys, monkeypatch):
    # at k=2 a degree holds one count entry, so the listed rows, i + 1 per weight,
    # bound the run long before its steps do
    started = []
    monkeypatch.setattr(cycbar.cli, "cell_counts", lambda k, i: started.append(i) or [])
    monkeypatch.setattr(cycbar.cli, "_morse_walk", lambda k, i, left: (started.append(i) or {}, left))
    assert run(capsys, "homology", "--k", "2", "--i", "50000") == (
        2, "", "error: homology --k 2 --i 50000 lists more than 50000 degrees: they pass it at weight 50000\n",
    )
    # weights 0..314 list 49770 rows and 0..315 list 50086
    code, _, err = run(capsys, "homology", "--k", "2", "--i", "0..10000000000000000000000")
    assert code == 2 and err.endswith("lists more than 50000 degrees: they pass it at weight 315\n")
    assert run(capsys, "homology", "--k", "2", "--i", "0..315")[0] == 2
    assert started == []
    assert run(capsys, "homology", "--k", "2", "--i", "49999")[0] == 0
    assert started == [49999, 49999]
    started.clear()
    assert run(capsys, "homology", "--k", "2", "--i", "0..314")[0] == 0
    assert len(started) == 2 * 315


def test_verify_refuses_above_the_cell_budget_before_enumerating(capsys, monkeypatch):
    started = []
    monkeypatch.setattr(CyclicBar, "enumerate_weight_component", lambda *a: started.append(a))
    monkeypatch.setattr(cycbar.cli, "_run_jobs", lambda fn, items, jobs: started.append(items) or [])
    code, out, err = run(capsys, "verify", "--k", "5", "--max-i", "18")
    assert (code, out, started) == (2, "", [])
    assert err == (
        "error: verify --k 5 --max-i 18 would check more than 100000000: "
        "the cells of weights 0..17 weigh 172552284, (l + 1)**3 each in degree l\n"
    )
    # a cell of degree l weighs (l + 1)**3: the budget admits k=4 and k=5 up to
    # weight 16 and refuses k=5 at 17
    assert run(capsys, "verify", "--k", "4", "--max-i", "16")[0] == 0
    assert run(capsys, "verify", "--k", "5", "--max-i", "16")[0] == 0
    assert started == [range(17), range(17)]
    assert run(capsys, "verify", "--k", "5", "--max-i", "17")[0] == 2
    # k=2 holds two cells per weight, in degrees i - 1 and i: weight 100 is
    # admitted, and the sum passes the budget at weight 118, whatever --max-i says
    assert run(capsys, "verify", "--k", "2", "--max-i", "100")[0] == 0
    assert run(capsys, "verify", "--k", "2", "--max-i", "200")[0] == 2
    assert run(capsys, "verify", "--k", "2", "--max-i", str(10**18))[0] == 2
    assert started == [range(17), range(17), range(101)]


def test_verdict_large_prime_is_bounded(capsys):
    code, out, _ = run(capsys, "verdict", "--p", "1000000000000000003", "--k", "2",
                       "--format", "json")
    assert code == 0
    node = json.loads(out)["verdicts"]
    assert node["witness_weight"] == 10**18 + 3
    assert node["exponent_sup"] == "infinity"
    code, _, err = run(capsys, "verdict", "--p", str(2**127 - 1), "--k", "2")
    assert code == 2
    assert "only decided below" in err


def test_worker_count_is_bounded(monkeypatch):
    # a process pinned to one of the machine's two CPUs gets one worker
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _worker_count(2, 10) == 1
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _worker_count(10**9, 10) == 3
    # without affinity masks the machine's CPU count is the bound
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert _worker_count(1, 10) == 1
    assert _worker_count(2, 10) == 2
    assert _worker_count(10**9, 10) == 2
    assert _worker_count(8, 1) == 1
    assert _worker_count(8, 0) == 0
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert _worker_count(10**9, 5) == 5
    assert _worker_count(3, 50) == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _worker_count(4, 10) == 1


def test_homology_json_is_rendered_a_weight_at_a_time():
    # the 11,476 rows of k=2, weights 0..150, made as one json.dumps and its
    # .replace copy, peaked at 15.2 MB while rendering; a weight per chunk, at 0.25 MB
    tree = cycbar.cli.cmd_homology(argparse.Namespace(k=2, i="0..150"))
    assert _traced_peak(lambda: sum(map(len, cycbar.cli._json_chunks(tree)))) < 2**20


def test_tp_text(capsys):
    code, out, _ = run(capsys, "tp", "--p", "2", "--k", "3", "--j", "1",
                       "--truncate", "10")
    assert code == 0
    assert "truncated at weight 10" in out
    assert "exponent supremum:     infinity" in out


def test_tp_json_factors(capsys):
    code, out, _ = run(capsys, "tp", "--p", "2", "--k", "3", "--j", "1",
                       "--truncate", "10", "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert [f["exponent"] for f in tree["factors"]] == [0, 1, 0, 2, 0, 0, 0, 3, 0, 1]
    assert tree["truncated"] is True
    assert tree["verdicts"]["integral_iso"] is False
    assert tree["verdicts"]["exponent_sup"] == "infinity"
    assert [f["k_divides_i"] for f in tree["factors"][:6]] == [
        False, False, True, False, False, True,
    ]


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.sampled_from(["", '"\\/\b\f\n\r\t', "\u2028\x00\x7f", "Z/2 é 𝔽_p ✓"]),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.dictionaries(st.text(), kids, max_size=4)
        | st.lists(st.dictionaries(st.text(), _JSON_LEAVES, min_size=1), min_size=2)
    ),
    max_leaves=40,
)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.text(), _JSON_TREES, min_size=1, max_size=4))
def test_json_text_is_json_dumps(report):
    text = "".join(cycbar.cli._json_chunks(report))
    assert text == json.dumps(report, indent=2, sort_keys=True)


def test_json_text_encodes_records_in_blocks():
    # blocks bound the size of each chunk, and each shape is made once
    for truncate in (1, 1024, 1025, 5000):
        blocks = list(cycbar.cli._FactorTable(2, 6, truncate))
        assert len(blocks) == math.ceil(truncate / 1024)
        assert max(map(len, blocks)) <= 1024
        assert [i for block in blocks for i, _ in block] == list(range(1, truncate + 1))
        shapes = [shape for block in blocks for _, shape in block]
        assert len({id(s) for s in shapes}) == len(set(shapes)) <= 2 * (math.log2(truncate) + 1)


def test_tp_json_bytes_are_json_dumps(capsys):
    code, out, _ = run(capsys, "tp", "--p", "2", "--k", "6", "--j", "1",
                       "--truncate", "5000", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class _Writes(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_tp_json_is_written_in_chunks(monkeypatch):
    # no chunk and no write holds the table: each is at most a block of
    # records, so a change that joins the payload again fails here
    argv = ["tp", "--p", "2", "--k", "6", "--j", "1", "--truncate", "20000", "--format", "json"]
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == 0
    out = stdout.getvalue()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert len(stdout.sizes) >= 20
    assert max(stdout.sizes) <= 256 * 1024


def _tp_argv(p, k, j, truncate, fmt):
    return ["tp", "--p", str(p), "--k", str(k), "--j", str(j), "--truncate", str(truncate), "--format", fmt]


def _reference_tp_tree(p, k, j, truncate):
    """The ``tp`` report tree as the CLI once built it, from ``relative_tp``'s factors."""
    report = relative_tp(p, k, j, truncate)
    v = report.verdicts
    return {
        "tool": "cycbar",
        "command": "tp",
        "config": {"p": p, "k": k, "j": j, "truncate": truncate},
        "parity": "odd" if j % 2 else "even",
        "truncated": report.truncated,
        "factors": [
            {
                "i": f.weight,
                "k_divides_i": f.multiple_of_k,
                "exponent": f.exponent,
                "order": f.order,
                "group": str(f.group),
            }
            for f in report.factors
        ],
        "verdicts": {
            "p": v.p,
            "k": v.k,
            "integral_iso": v.integral_iso,
            "p_inverted_iso": v.p_inverted_iso,
            "witness_weight": v.witness_weight,
            "witness_exponent": v.witness_exponent,
            "exponent_sup": "infinity" if v.exponent_sup is math.inf else v.exponent_sup,
            "remark": v.remark,
        },
    }


def _reference_tp_text(tree):
    """The ``tp`` text report, made from a reference tree in one string."""
    config, v = tree["config"], tree["verdicts"]
    yes_no = {True: "yes", False: "no"}
    lines = [f"relative periodic theory for p={config['p']}, k={config['k']}, degree j={config['j']}"]
    if tree["factors"]:
        lines.append("  weight  k|i  factor")
        lines += [
            f"  {f['i']:>6}  {'yes' if f['k_divides_i'] else ' no'}  {f['group']} (exponent {f['exponent']})"
            for f in tree["factors"]
        ]
        lines.append(
            f"  truncated at weight {config['truncate']}; higher weights follow the "
            "same two-case exponent rule"
        )
    else:
        lines.append("  the group vanishes in even degrees (no factors)")
    lines += [
        "verdicts:",
        f"  integral isomorphism:  {yes_no[v['integral_iso']]} (weight {v['witness_weight']} "
        f"contributes Z/{v['p']}^{v['witness_exponent']})",
        f"  after inverting p:     {yes_no[v['p_inverted_iso']]}",
        f"  exponent supremum:     {v['exponent_sup']}",
        f"  remark: {v['remark']}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p", [2, 3, 5, 999999999989])
@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 9, 12])
def test_tp_matches_relative_tp(capsys, p, k):
    # every degree parity, and truncations at the edges of a block of records
    for j in (-1, 0, 1, 2, 3):
        for truncate in (1, 1023, 1024, 1025, 2049):
            tree = _reference_tp_tree(p, k, j, truncate)
            want = {
                "json": json.dumps(tree, indent=2, sort_keys=True) + "\n",
                "text": _reference_tp_text(tree),
            }
            for fmt, text in want.items():
                assert run(capsys, *_tp_argv(p, k, j, truncate, fmt)) == (0, text, "")


def test_tp_text_is_written_line_by_line(monkeypatch):
    # the text twin of the JSON check above: no write holds the table
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(_tp_argv(2, 6, 1, 20000, "text")) == 0
    assert stdout.getvalue() == _reference_tp_text(_reference_tp_tree(2, 6, 1, 20000))
    assert len(stdout.sizes) >= 20
    assert max(stdout.sizes) <= 256 * 1024


def test_tp_builds_no_factor_per_weight(capsys, monkeypatch):
    # the CLI makes the table from the exponent rule, not from one
    # CyclicFactor per weight, so the count does not grow with --truncate
    unpatched = {
        (fmt, t): run(capsys, *_tp_argv(2, 6, 1, t, fmt)) for fmt in ("text", "json") for t in (10, 5000)
    }
    built = []

    class Counted(tate_tp.CyclicFactor):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tate_tp, "CyclicFactor", Counted)
    assert {type(f) for f in relative_tp(2, 6, 1, 10).factors} == {Counted}
    for fmt in ("text", "json"):
        counts = []
        for t in (10, 5000):
            before = len(built)
            assert run(capsys, *_tp_argv(2, 6, 1, t, fmt)) == unpatched[fmt, t]
            counts.append(len(built) - before)
        assert counts[0] == counts[1]


def test_tp_table_makes_no_call_per_weight(capsys, monkeypatch):
    # the exponents come a block at a time by striding, so --truncate 5000
    # adds at most one valuation per block of 1,024 weights to --truncate 10
    unpatched = {
        (fmt, t): run(capsys, *_tp_argv(2, 6, 1, t, fmt)) for fmt in ("text", "json") for t in (10, 5000)
    }
    calls = []
    for name in ("_valuation", "_exponent"):
        real = getattr(tate_tp, name)
        monkeypatch.setattr(tate_tp, name, lambda *a, real=real: calls.append(a) or real(*a))
    for fmt in ("text", "json"):
        counts = []
        for t in (10, 5000):
            calls.clear()
            assert run(capsys, *_tp_argv(2, 6, 1, t, fmt)) == unpatched[fmt, t]
            counts.append(len(calls))
        assert counts[1] - counts[0] <= -(-5000 // 1024), counts


def test_tp_decides_the_prime_once(capsys, monkeypatch):
    calls = []
    real = tate_tp._is_prime
    monkeypatch.setattr(tate_tp, "_is_prime", lambda p: calls.append(p) or real(p))
    for fmt in ("text", "json"):
        calls.clear()
        assert run(capsys, *_tp_argv(999999999989, 6, 1, 10, fmt))[0] == 0
        assert calls == [999999999989]


def test_tp_encodes_each_record_shape_once(capsys, monkeypatch):
    # one json.dumps call per shape (exponent, k | i) and none per record;
    # at k = p^2 a table has the same 3 shapes at both truncations
    calls = []
    real = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    counts = []
    for t in (5000, 100000):
        calls.clear()
        assert run(capsys, *_tp_argv(3, 9, 1, t, "json"))[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_tp_table_memory_does_not_hold_the_table(monkeypatch):
    # the 100k-factor table as objects and dicts took ~29 MB; a block of
    # (weight, shape) pairs and its chunk peak at about 0.6 MB
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(_tp_argv(2, 6, 1, 100000, "json")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, fmt):
    argv = ["tp", "--p", "2", "--k", "6", "--j", "1", "--truncate", "5000", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / f"tp.{fmt}"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_refused_run_leaves_out_file_untouched(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_bytes(b"earlier report\n\x00")
    code, out, err = run(
        capsys, "tp", "--p", "4", "--k", "3", "--j", "1", "--truncate", "5",
        "--format", "json", "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err == "error: expected a prime, got composite 4\n"
    assert target.read_bytes() == b"earlier report\n\x00"


def test_json_format_builds_no_text(capsys, monkeypatch):
    def text_lines(*args, **kwargs):
        raise AssertionError("text lines built for --format json")

    monkeypatch.setattr(cycbar.cli, "_verdict_lines", text_lines)
    code, out, _ = run(capsys, "tp", "--p", "2", "--k", "3", "--j", "1",
                       "--truncate", "10", "--format", "json")
    assert code == 0 and json.loads(out)["command"] == "tp"
    code, out, _ = run(capsys, "verdict", "--p", "3", "--k", "9", "--format", "json")
    assert code == 0 and json.loads(out)["command"] == "verdict"


def test_tp_even_degree(capsys):
    code, out, _ = run(capsys, "tp", "--p", "2", "--k", "3", "--j", "2",
                       "--truncate", "10", "--format", "json")
    assert code == 0
    tree = json.loads(out)
    assert tree["factors"] == []
    assert tree["truncated"] is False


def test_verdict_json(capsys):
    code, out, _ = run(capsys, "verdict", "--p", "3", "--k", "9",
                       "--format", "json")
    assert code == 0
    node = json.loads(out)["verdicts"]
    assert node["integral_iso"] is False
    assert node["p_inverted_iso"] is True
    assert node["exponent_sup"] == 2
    assert node["witness_weight"] == 9
    assert "negative cyclic" in node["remark"]


def test_verdict_large_prime_power_is_immediate(capsys):
    # 3^19: the exponent supremum comes from the valuation alone
    code, out, _ = run(capsys, "verdict", "--p", "3", "--k", "1162261467",
                       "--format", "json")
    assert code == 0
    node = json.loads(out)["verdicts"]
    assert node["exponent_sup"] == 19
    assert node["p_inverted_iso"] is True


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def _break_selftest(monkeypatch, check):
    """Make one selftest check fail, and only at chosen (k, i)."""
    if check == "identities":
        cyclic = CyclicBar.cyclic
        # a rotation that does nothing breaks the cyclic relations at k=3
        monkeypatch.setattr(
            CyclicBar, "cyclic",
            lambda bar, s: s if bar.k == 3 else cyclic(bar, s),
        )
    elif check == "boundary":
        monkeypatch.setattr(
            ChainComplex, "boundary_composes_to_zero",
            lambda cx: (cx.k, cx.i) not in {(3, 6), (4, 2)},
        )
    elif check == "euler":
        count = WeightComponent.alternating_count
        monkeypatch.setattr(
            WeightComponent, "alternating_count",
            lambda wc: 5 if (wc.k, wc.i) in {(3, 7), (4, 1)} else count(wc),
        )
    else:
        groups = cycbar.homology.homology_groups
        monkeypatch.setattr(
            cycbar.homology, "homology_groups",
            lambda cx: {} if (cx.k, cx.i) in {(3, 5), (3, 6), (4, 1)} else groups(cx),
        )


SELFTEST_PASS = {
    "identities": "PASS  operator identities (1683 simplices checked)",
    "boundary": "PASS  boundary squares to zero (33 complexes checked)",
    "euler": "PASS  alternating counts vanish (30 weights checked)",
    "sphere": "PASS  homology matches the closed form (30 weight pieces matched)",
}
SELFTEST_FAIL = {
    "identities": "FAIL  operator identities (k=3: 5165 violations)",
    "boundary": "FAIL  boundary squares to zero "
    "(boundary fails to square to zero at k=3, i=6)",
    "euler": "FAIL  alternating counts vanish (alternating count 5 at k=3, i=7)",
    "sphere": "FAIL  homology matches the closed form "
    "(homology mismatch at k=3, i=5)",
}


def test_selftest_failure_details(capsys, monkeypatch):
    # each check alone, then all four at once: the first failing (k, i)
    # in k-then-i order is reported, and the other checks are unaffected
    for broken in [[c] for c in SELFTEST_FAIL] + [list(SELFTEST_FAIL)]:
        with monkeypatch.context() as m:
            for check in broken:
                _break_selftest(m, check)
            code, out, _ = run(capsys, "selftest")
            json_code, json_out, _ = run(capsys, "selftest", "--format", "json")
        want = [
            SELFTEST_FAIL[c] if c in broken else SELFTEST_PASS[c]
            for c in SELFTEST_PASS
        ]
        assert code == json_code == 1
        assert out.splitlines() == want + ["selftest: CHECKS FAILED"]
        tree = json.loads(json_out)
        assert tree["ok"] is False
        assert [
            f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']} ({c['detail']})"
            for c in tree["checks"]
        ] == want


# passing lines of verify --k 3 --max-i 7 -> their lines with the check broken
VERIFY_FAIL = {
    "sphere": {
        "    i= 5: match  (Z at degrees 2, 3)": [
            "    i= 5: MISMATCH",
            "      degree 2: computed 0, expected Z",
            "      degree 3: computed 0, expected Z",
        ],
        "    i= 6: match  (Z/3 at degree 3)": [
            "    i= 6: MISMATCH",
            "      degree 3: computed 0, expected Z/3",
        ],
    },
    "euler": {"  alternating counts: 7 weights, all zero":
              ["  alternating counts: 7 weights, 1 NONZERO"]},
    "identities": {"  operator identities: 107 simplices, 0 violations":
                   ["  operator identities: 107 simplices, 837 violations"]},
}


def test_verify_failure_report(capsys, monkeypatch):
    # each check alone, then all three at once, against the passing report
    passing = (GOLDEN / "verify_k3_max7.txt").read_text().splitlines()
    assert passing[-1] == "overall: PASS"
    for broken in [[c] for c in VERIFY_FAIL] + [list(VERIFY_FAIL)]:
        with monkeypatch.context() as m:
            for check in broken:
                _break_selftest(m, check)
            argv = ("verify", "--k", "3", "--max-i", "7")
            code, out, _ = run(capsys, *argv)
            json_code, json_out, _ = run(capsys, *argv, "--format", "json")
        want = []
        for line in passing[:-1]:
            fixed = [VERIFY_FAIL[c][line] for c in broken if line in VERIFY_FAIL[c]]
            want.extend(fixed[0] if fixed else [line])
        assert code == json_code == 1
        assert out.splitlines() == want + ["overall: FAIL"]
        tree = json.loads(json_out)
        assert tree["ok"] is False
        pieces = {w["i"]: w for w in tree["weight_pieces"]}
        sphere = "sphere" in broken
        assert (pieces[5]["match"], pieces[5]["mismatched_degrees"]) == (not sphere, [2, 3] if sphere else [])
        assert (pieces[6]["match"], pieces[6]["mismatched_degrees"]) == (not sphere, [3] if sphere else [])
        assert len(tree["identities"]["violations"]) == (837 if "identities" in broken else 0)
        euler = "euler" in broken
        assert tree["euler"][-1] == {"i": 7, "alternating_count": 5 if euler else 0, "ok": not euler}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "homology", "--k", "1", "--i", "1")[0] == 2
    assert run(capsys, "homology", "--k", "2", "--i", "5..2")[0] == 2
    assert run(capsys, "homology", "--k", "2", "--i", "x")[0] == 2
    assert run(capsys, "verify", "--k", "2", "--max-i", "0")[0] == 2
    assert run(capsys, "tp", "--p", "4", "--k", "3", "--j", "1",
               "--truncate", "5")[0] == 2
    assert run(capsys, "tp", "--p", "2", "--k", "3", "--j", "1",
               "--truncate", "0")[0] == 2
    assert run(capsys, "verdict", "--p", "2", "--k", "0")[0] == 2
    code, _, err = run(capsys, "homology", "--k", "1", "--i", "1")
    assert "error:" in err


USAGE_ERRORS = [
    (("homology", "--k", "1", "--i", "1"), "--k must be >= 2, got 1"),
    (("verify", "--k", "2", "--max-i", "0"), "--max-i must be >= 1, got 0"),
    (("verdict", "--p", "1", "--k", "2"), "--p must be a prime >= 2, got 1"),
    (("verdict", "--p", "4", "--k", "2"), "expected a prime, got composite 4"),
    (("tp", "--p", "4", "--k", "3", "--j", "1", "--truncate", "5"),
     "expected a prime, got composite 4"),
    (("tp", "--p", "2", "--k", "3", "--j", "1", "--truncate", "0"),
     "--truncate must be >= 1, got 0"),
    # the --jobs check comes before the cell budget
    (("verify", "--k", "5", "--max-i", "18", "--jobs", "0"), "--jobs must be >= 1, got 0"),
    (("verify", "--k", "2", "--max-i", "2", "--jobs", "0"), "--jobs must be >= 1, got 0"),
    (("homology", "--k", "2", "--i", "5..2"), "empty weight range '5..2'"),
    (("homology", "--k", "2", "--i", "x"), "cannot parse weight range 'x'; use N or A..B"),
    # several bad values: the checks run in a fixed order and the first speaks
    (("verify", "--k", "1", "--max-i", "0", "--jobs", "0"), "--jobs must be >= 1, got 0"),
    (("homology", "--k", "1", "--i", "x"), "--k must be >= 2, got 1"),
    (("tp", "--p", "1", "--k", "1", "--j", "1", "--truncate", "0"),
     "--k must be >= 2, got 1"),
    (("tp", "--p", "1", "--k", "2", "--j", "1", "--truncate", "0"),
     "--p must be a prime >= 2, got 1"),
    # tp's table has an upper bound too
    (("tp", "--p", "2", "--k", "6", "--j", "1", "--truncate", "10000001"),
     "--truncate must be at most 10000000, got 10000001"),
    (("tp", "--p", "2", "--k", "6", "--j", "1", "--truncate", "1000000000000"),
     "--truncate must be at most 10000000, got 1000000000000"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_tp_truncate_limit_is_admitted():
    # at 10**7 the table takes seconds and ~1.2 GB of JSON, so only the check runs here
    argv = ["tp", "--p", "2", "--k", "6", "--j", "1", "--truncate", str(cycbar.cli.TP_TRUNCATE_LIMIT)]
    assert cycbar.cli.TP_TRUNCATE_LIMIT == 10**7
    cycbar.cli._check_args(cycbar.cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("target", ["dir", "missing/report.json"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    code, out, err = run(
        capsys, "verdict", "--p", "2", "--k", "4", "--out", str(tmp_path / target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _cli_process(argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "cycbar.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
    )


def test_closed_stdout_exits_2():
    # `cycbar tp ... | head -n 2`: the pipe closes long before the table ends
    proc = _cli_process(_tp_argv(2, 6, 1, 100000, "text"), subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"relative periodic theory")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_full_stdout_exits_2(fmt):
    with open("/dev/full", "w") as full:
        proc = _cli_process(["verdict", "--p", "2", "--k", "4", "--format", fmt], full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: cannot write stdout: [Errno 28] No space left on device\n"


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--k", "2"])
    assert exc.value.code == 2
