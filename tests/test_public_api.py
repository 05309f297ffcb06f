"""The public surface: the names `tropfan` exports and the options of each
CLI subcommand. A name or flag that is added or removed fails here, so the
change shows up as an edit of this file and is recorded in CHANGES.md."""

import argparse

import tropfan
from tropfan.cli import _build_parser

PUBLIC_NAMES = [
    "CapResult", "ChainComplex", "Cone", "FAILS", "Fan", "FundamentalChain", "GroupPresentation",
    "HOLDS", "HYPOTHESIS_VIOLATED", "HomologyTable", "InputError", "IntMatrix", "LocalTpdReport",
    "Matroid", "ModuleAssignment", "RingTag", "TheoremViolation", "TpdReport",
    "WeightedFan", "balancing_failure", "bergman_fan", "bm_chain_complex", "build_fan",
    "build_multicotangent", "build_multitangent", "cap_chain_general", "cap_q0", "cap_star",
    "classify_dim1", "compact_cochain_complex", "complexes", "cone_subfan",
    "constant_compact_cochain", "contract", "duality", "euler_characteristic", "euler_criterion",
    "exact", "fans", "fundamental_chain", "hermite_normal_form", "homology", "homology_of_pair",
    "incidence_sign", "intmat", "io", "is_balanced", "is_local_tpd", "is_tpd",
    "is_uniquely_balanced", "kernel_lattice", "local_tpd_characterization", "matroid_flats",
    "matroids", "parse_fan", "parse_matroid", "plain_chain_complex", "plain_cochain_complex",
    "saturate", "serialize_fan", "serialize_matroid", "sheaves", "smith_normal_form",
    "star_bm_complex", "star_row_complex", "stars_balanced_check",
    "tpd_from_stars_check", "wedge_basis",
]

COMMON = ["--fan", "--help", "--json", "--output", "--ring", "-h", "-o"]
WITH_P = sorted(COMMON + ["--p"])

CLI_OPTIONS = {
    "balance": COMMON,
    "homology": WITH_P,
    "cohomology": WITH_P,
    "tpd": COMMON,
    "local-tpd": COMMON,
    "euler": WITH_P,
    "dim1": COMMON,
    "star-export": sorted(COMMON + ["--face"]),
    "bergman": sorted(set(COMMON) - {"--fan"} | {"--matroid"}),
    "star-row": WITH_P,
}


def test_exported_names():
    assert sorted(tropfan.__all__) == PUBLIC_NAMES


def test_cli_subcommands_and_options():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS
