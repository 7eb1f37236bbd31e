"""The package's public surface: its names, where they live, its version,
its value classes, and what importing it loads."""

import copy
import pickle
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest

import cycbar
import cycbar.cyclic_bar
import cycbar.homology
import cycbar.tate_tp
from cycbar import (
    AbelianGroup,
    ChainComplex,
    CyclicBar,
    CyclicFactor,
    NilInvariance,
    TPReport,
    WeightComponent,
    WeightPieceReport,
    chain_complex,
    nil_invariance_report,
    relative_tp,
    verify_weight_piece,
)
from cycbar.cyclic_bar import _Value
from cycbar.tate_tp import NEGATIVE_CYCLIC_REMARK

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name, under the module that defines or re-exports it
HOMES = {
    cycbar.cyclic_bar: [
        "BASEPOINT",
        "CyclicBar",
        "WeightComponent",
        "cell_counts",
        "identity_report",
        "identity_violations",
        "is_degenerate",
        "simplex_weight",
        "weight_identity_violations",
    ],
    cycbar.homology: [
        "AbelianGroup",
        "ChainComplex",
        "WeightPieceReport",
        "chain_complex",
        "expected_reduced_homology",
        "homology_groups",
        "lambda_dim",
        "morse_homology",
        "smith_normal_form",
        "verify_weight_piece",
    ],
    cycbar.tate_tp: [
        "CyclicFactor",
        "NilInvariance",
        "TPReport",
        "exponent_sup",
        "nil_invariance_report",
        "p_adic_valuation",
        "relative_tp",
        "tate_cpn_homotopy",
        "weight_piece_exponent",
        "weight_piece_tp",
    ],
}


def test_public_names():
    assert sorted(cycbar.__all__) == sorted(n for names in HOMES.values() for n in names)
    assert len(cycbar.__all__) == 29


def test_public_names_are_the_module_objects():
    for module, names in HOMES.items():
        for name in names:
            assert getattr(cycbar, name) is getattr(module, name), name


def test_version():
    assert cycbar.__version__ == "0.1.0"


REMARK_REPR = repr(NEGATIVE_CYCLIC_REMARK)


def _values():
    """One instance of each value class, with its repr as it read when the classes were dataclasses."""
    wc = CyclicBar(3).enumerate_weight_component(3)
    report = verify_weight_piece(chain_complex(CyclicBar(2).enumerate_weight_component(2)))
    return [
        (WeightComponent(3, 0), "WeightComponent(k=3, i=0, counts=[])"),
        (wc, "WeightComponent(k=3, i=3, counts=[0, 2, 3, 1])"),
        (AbelianGroup(2, (2, 4)), "AbelianGroup(rank=2, torsion=(2, 4))"),
        (chain_complex(wc), "ChainComplex(k=3, i=3, dims=[0, 2, 3, 1])"),
        (
            report,
            "WeightPieceReport(k=2, i=2, computed={0: AbelianGroup(rank=0, torsion=()), "
            "1: AbelianGroup(rank=0, torsion=(2,)), 2: AbelianGroup(rank=0, torsion=())}, "
            "expected={1: AbelianGroup(rank=0, torsion=(2,))}, mismatched_degrees=())",
        ),
        (CyclicFactor(2, 4, 2, False), "CyclicFactor(p=2, weight=4, exponent=2, multiple_of_k=False)"),
        (
            nil_invariance_report(2, 6),
            "NilInvariance(p=2, k=6, integral_iso=False, p_inverted_iso=False, witness_weight=6, "
            f"witness_exponent=1, exponent_sup=inf, remark={REMARK_REPR})",
        ),
        (
            relative_tp(2, 3, 1, 2),
            "TPReport(p=2, k=3, j=1, truncation=2, truncated=True, factors=("
            "CyclicFactor(p=2, weight=1, exponent=0, multiple_of_k=False), "
            "CyclicFactor(p=2, weight=2, exponent=1, multiple_of_k=False)), "
            "verdicts=NilInvariance(p=2, k=3, integral_iso=False, p_inverted_iso=False, witness_weight=2, "
            f"witness_exponent=1, exponent_sup=inf, remark={REMARK_REPR}))",
        ),
    ]


def test_value_classes_keep_their_contract():
    classes = set()
    for value, want in _values():
        cls = type(value)
        classes.add(cls)
        assert repr(value) == want
        names = cls.__match_args__
        fields = tuple(getattr(value, name) for name in names)
        assert not hasattr(value, "__dict__"), cls
        # equal copies, positional and by keyword, compare and hash equal
        for same in (cls(*fields), cls(**dict(zip(names, fields)))):
            assert same == value and not same != value
            if cls is not WeightPieceReport:
                assert hash(same) == hash(value) == hash(fields)
        # the same fields under another class are another value
        twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
        assert twin != value and value != twin and not twin == value
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(back) is cls and back == value and repr(back) == want
        if cls is WeightPieceReport:
            assert cls.__hash__ is None
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
            value.mismatched_degrees = (1,)
            assert value.mismatched_degrees == (1,) and not value.matches
            continue
        for name, field in zip(names, fields):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
            assert getattr(value, name) is field
    assert len(classes) == 7
    assert WeightComponent(3, 0).simplices_by_degree == ()
    assert AbelianGroup() == AbelianGroup(0, []) == AbelianGroup.free(0)
    assert AbelianGroup(0, [2, 4]).torsion == (2, 4)
    assert NilInvariance(2, 6, False, False, 6, 1, inf).remark == NEGATIVE_CYCLIC_REMARK
    for args, message in [
        ((-1,), "rank must be a nonnegative integer, got -1"),
        ((True,), "rank must be a nonnegative integer, got True"),
        ((1.0,), "rank must be a nonnegative integer, got 1.0"),
        ((0, (1,)), "torsion order 1 is not an integer >= 2"),
        ((0, (2.0,)), "torsion order 2.0 is not an integer >= 2"),
        ((0, (2, 3)), "torsion orders 2, 3 break divisibility"),
    ]:
        with pytest.raises(ValueError) as err:
            AbelianGroup(*args)
        assert str(err.value) == message


def test_value_classes_share_one_constructor():
    classes = [c for c in _Value.__subclasses__() if c.__module__.startswith("cycbar.")]
    assert {type(value) for value, _ in _values()} == set(classes)
    assert [c.__name__ for c in classes if "__init__" in vars(c)] == ["AbelianGroup"]
    for cls in classes:
        assert len(cls.__match_args__) >= 2, cls
        assert cls.__match_args__ == cls.__slots__, cls


def test_value_class_constructors_refuse_bad_arguments():
    for value, _ in _values():
        cls = type(value)
        names = cls.__match_args__
        fields = tuple(getattr(value, name) for name in names)
        given = dict(zip(names, fields))
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*fields, None)
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'bogus'"):
            cls(*fields, bogus=None)
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'{names[0]}'"):
            cls(*fields, **{names[0]: fields[0]})
        if cls is AbelianGroup:  # both of its fields have defaults
            continue
        for name in set(names) - set(cls._defaults):
            without = {n: f for n, f in given.items() if n != name}
            with pytest.raises(TypeError, match=f"^{cls.__name__} is missing field '{name}'$"):
                cls(**without)
    with pytest.raises(TypeError, match="^WeightComponent takes 3 fields, got 4$"):
        WeightComponent(3, 0, (), None)
    with pytest.raises(TypeError, match="^CyclicFactor got field 'weight' twice$"):
        CyclicFactor(2, 4, 2, False, weight=4)
    with pytest.raises(TypeError, match="^TPReport has no field 'factor'$"):
        TPReport(2, 3, 1, 2, True, (), None, factor=())


def test_value_class_keyword_defaults():
    assert WeightComponent(k=3, i=0) == WeightComponent(3, 0, ()) == WeightComponent(i=0, k=3)
    verdict = NilInvariance(2, 6, False, False, 6, 1, inf, remark="r")
    assert verdict.remark == "r" and verdict != nil_invariance_report(2, 6)
    assert NilInvariance(2, 6, False, False, 6, 1, inf, "r") == verdict
    assert AbelianGroup(torsion=(2,)) == AbelianGroup(0, (2,)) == AbelianGroup.cyclic(2)


def test_value_classes_match_positional_patterns():
    for value, _ in _values():
        got = None
        match value:
            case WeightComponent(k, i, blocks):
                got = (k, i, blocks)
            case AbelianGroup(rank, torsion):
                got = (rank, torsion)
            case ChainComplex(k, i, bases, boundaries):
                got = (k, i, bases, boundaries)
            case WeightPieceReport(k, i, computed, expected, bad):
                got = (k, i, computed, expected, bad)
            case CyclicFactor(p, weight, exponent, multiple_of_k):
                got = (p, weight, exponent, multiple_of_k)
            case NilInvariance(p, k, integral, inverted, weight, exponent, sup, remark):
                got = (p, k, integral, inverted, weight, exponent, sup, remark)
            case TPReport(p, k, j, truncation, truncated, factors, verdicts):
                got = (p, k, j, truncation, truncated, factors, verdicts)
        assert got == tuple(getattr(value, name) for name in type(value).__slots__)
    match relative_tp(2, 3, 1, 2):
        case TPReport(2, 3, 1, 2, True, (CyclicFactor(2, 1, 0), CyclicFactor(2, 2, 1, False)), NilInvariance(2, 3)):
            pass
        case other:
            pytest.fail(f"no pattern matched {other!r}")


def test_import_loads_neither_dataclasses_nor_inspect():
    # a site hook may import modules before cycbar does, so only what the
    # import adds counts; building each value class once may add neither
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import cycbar, cycbar.cli; from cycbar import *; "
        "verify_weight_piece(chain_complex(CyclicBar(2).enumerate_weight_component(2))); "
        "relative_tp(2, 3, 1, 2); WeightComponent(k=3, i=0); "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    added = set(done.stdout.split())
    assert {"cycbar", "cycbar.cli"} <= added
    assert not {"dataclasses", "inspect"} & added, sorted(added)
