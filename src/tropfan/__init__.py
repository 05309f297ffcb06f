"""Exact tropical (co)homology of weighted rational polyhedral fans.

The package computes multi-tangent (co)sheaf (co)homology of pointed fans
over Z, Q and prime fields with exact arithmetic, and certifies tropical
Poincare duality (globally and at every face star) via cap products with the
fundamental chain. See tropfan.cli for the command-line front end and
tropfan.fixtures for the bundled worked examples.
"""

from .complexes import (
    ChainComplex,
    HomologyTable,
    bm_chain_complex,
    compact_cochain_complex,
    constant_compact_cochain,
    euler_characteristic,
    homology,
    plain_chain_complex,
    plain_cochain_complex,
    star_bm_complex,
    star_row_complex,
)
from .duality import (
    FAILS,
    HOLDS,
    HYPOTHESIS_VIOLATED,
    CapResult,
    FundamentalChain,
    LocalTpdReport,
    TheoremViolation,
    TpdReport,
    balancing_failure,
    cap_chain_general,
    cap_q0,
    cap_star,
    classify_dim1,
    contract,
    euler_criterion,
    fundamental_chain,
    is_balanced,
    is_local_tpd,
    is_tpd,
    is_uniquely_balanced,
    local_tpd_characterization,
    stars_balanced_check,
    tpd_from_stars_check,
)
from .exact import (
    GroupPresentation,
    RingTag,
    hermite_normal_form,
    homology_of_pair,
    kernel_lattice,
    saturate,
    smith_normal_form,
)
from .fans import Cone, Fan, WeightedFan, build_fan, cone_subfan, incidence_sign
from .intmat import IntMatrix
from .io import InputError, parse_fan, parse_matroid, serialize_fan, serialize_matroid
from .matroids import Matroid, bergman_fan, matroid_flats
from .sheaves import ModuleAssignment, build_multicotangent, build_multitangent, wedge_basis

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
