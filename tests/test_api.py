"""The package's public surface: its names, where they live, its version."""

import cycbar
import cycbar.cyclic_bar
import cycbar.homology
import cycbar.tate_tp

# every public name, under the module that defines or re-exports it
HOMES = {
    cycbar.cyclic_bar: [
        "BASEPOINT",
        "CyclicBar",
        "WeightComponent",
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
    assert len(cycbar.__all__) == 27


def test_public_names_are_the_module_objects():
    for module, names in HOMES.items():
        for name in names:
            assert getattr(cycbar, name) is getattr(module, name), name


def test_version():
    assert cycbar.__version__ == "0.1.0"
