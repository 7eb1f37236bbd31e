"""Byte-for-byte CLI output on a fixed golden set.

Each file under ``tests/golden/`` is the exact stdout of
``cycbar <argv>`` for the entry of the same name in ``CASES``, captured
once and frozen.  A change to the program that alters any report byte
fails here; a deliberate change to a report regenerates its file.
"""

from pathlib import Path

import pytest

from cycbar.cli import main

GOLDEN = Path(__file__).parent / "golden"

_BASE = {
    "homology_k3_i0-6": ["homology", "--k", "3", "--i", "0..6"],
    "verify_k3_max7": ["verify", "--k", "3", "--max-i", "7"],
    "verify_k2_max6": ["verify", "--k", "2", "--max-i", "6"],
    "tp_p2_k3_j1_t10": ["tp", "--p", "2", "--k", "3", "--j", "1", "--truncate", "10"],
    "tp_p2_k3_j2_t10": ["tp", "--p", "2", "--k", "3", "--j", "2", "--truncate", "10"],
    "verdict_p2_k4": ["verdict", "--p", "2", "--k", "4"],
    "verdict_p3_k6": ["verdict", "--p", "3", "--k", "6"],
    "selftest": ["selftest"],
}

CASES = {}
for _name, _argv in _BASE.items():
    CASES[f"{_name}.txt"] = _argv
    CASES[f"{_name}.json"] = _argv + ["--format", "json"]


def test_golden_set_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
