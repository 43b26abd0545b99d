"""Singular reduction of cosphere bundles at zero momentum.

Two entry points: build an :class:`IsotropyPoset` by hand (or from JSON)
and stratify it with :func:`cl_stratification`, or start from a concrete
:class:`TorusActionSpec` on R^{2n} and let :func:`build_isotropy_poset`
derive the poset.  The ``phase``/``reeb``/``checks`` layers verify the
combinatorial answers numerically on the builtin fixtures.
"""

from .fixtures import BUILTIN_FIXTURES, Fixture, get_fixture
from .phase import (
    PhasePoint,
    check_reduced_membership,
    hilbert_map,
    k0_project,
    zero_level_arrays,
)
from .poset import (
    IsotropyPoset,
    OrbitType,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    principal_type,
)
from .reeb import Trajectory, flow_exact, flow_rk4
from .strata import (
    StratificationResult,
    Stratum,
    StratumKind,
    cl_stratification,
    semifree_diagnostics,
)
from .torus import (
    TorusActionSpec,
    build_isotropy_poset,
    spec_from_json,
    spec_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_FIXTURES",
    "Fixture",
    "IsotropyPoset",
    "OrbitType",
    "PhasePoint",
    "StratificationResult",
    "Stratum",
    "StratumKind",
    "TorusActionSpec",
    "Trajectory",
    "build_isotropy_poset",
    "check_reduced_membership",
    "cl_stratification",
    "flow_exact",
    "flow_rk4",
    "get_fixture",
    "hilbert_map",
    "k0_project",
    "poset_from_json",
    "poset_to_dot",
    "poset_to_json",
    "principal_type",
    "semifree_diagnostics",
    "spec_from_json",
    "spec_to_json",
    "zero_level_arrays",
]
