"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cycbar import CyclicBar  # noqa: E402


def test_cell_count_oracle_matches_known_component():
    assert CyclicBar(3).enumerate_weight_component(4).degree_counts() == [0, 1, 4, 4, 1]
    assert oracles.cell_counts(3, 4) == [0, 1, 4, 4, 1]


@pytest.mark.parametrize("name", sorted(workloads.SMALL_WORKLOADS))
def test_small_workload_passes_its_oracles(name):
    result = run.run_pass(workloads.SMALL_WORKLOADS[name](), random.Random(0))
    assert result["problems"] == [] and result["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.SMALL_WORKLOADS))
def test_counts_repeat_exactly_and_tracer_restores(name):
    items = workloads.SMALL_WORKLOADS[name]()
    originals = [owner.__dict__.get(attr) for owner, attr, _, _ in tracing.TARGETS]
    counts = []
    for seed in (1, 2):
        tracer = tracing.Tracer()
        with tracer.installed():
            run.run_pass(items, random.Random(seed), tracer)
        counts.append(tracer.counts)
        assert all(start <= end for _, start, end, _ in tracer.spans)
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert [owner.__dict__.get(attr) for owner, attr, _, _ in tracing.TARGETS] == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["cli", 0.0, 10.0, -1], ["homology.reduce", 1.0, 7.0, 0], ["homology.snf", 2.0, 6.0, 1]]
    times = tracer.self_times()
    assert times["cli"] == 4.0 and times["homology.reduce"] == 2.0 and times["homology.snf"] == 4.0


@pytest.mark.parametrize(
    "item, bad",
    [
        (workloads.homology_item(3, 3), workloads.CliResult(0, workloads.run_cli(["homology", "--k", "3", "--i", "3", "--format", "json"]).stdout.replace('"Z/3"', '"Z/9"'), "")),
        (workloads.verdict_item(2, 6), workloads.CliResult(0, workloads.run_cli(["verdict", "--p", "2", "--k", "4", "--format", "json"]).stdout, "")),
        (workloads.large_item(3, 5), (oracles.cell_counts(3, 5), oracles.cell_counts(3, 5), False, 0)),
        (workloads.large_item(3, 5), (oracles.cell_counts(3, 5), oracles.cell_counts(3, 5), True, 2)),
    ],
)
def test_oracles_reject_wrong_outputs(item, bad):
    assert run.check(item, bad)


def test_failed_or_unreadable_runs_count_as_problems():
    item = workloads.homology_item(3, 3)
    assert run.check(item, workloads.CliResult(2, "", "error: bad")) == ["ValueError: exit code 2: error: bad"]
    assert run.check(item, workloads.CliResult(0, "{}", ""))
