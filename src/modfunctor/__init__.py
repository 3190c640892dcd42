"""Numerical modular-functor toolkit.

Builds modular data (labels, S-matrix, twists) for special-unitary and
general simple-type families, computes Verlinde fusion and state-space
dimensions of labeled surfaces, presents the fusion grading group and its
characters, and solves the scaling equations that make duality, gluing
and Hermitian structure strictly compatible.
"""

from types import ModuleType as _ModuleType

from .characters import (
    DualGroupPresentation,
    GroupCharacter,
    InfeasibilityCertificate,
    dual_group,
    find_fundamental_symplectic_character,
    generator_characters,
    vanishing_check,
)
from .families import BUILTIN_LIE, BUILTIN_SU, FamilyError, builtin_families, parse_family
from .fileio import (
    FileFormatError,
    dumps_modular_data,
    load_modular_data,
    modular_data_from_dict,
    modular_data_to_dict,
    save_modular_data,
)
from .lie import (
    LieData,
    alcove_weights,
    simple_lie_modular_data,
    su_level_labels,
    su_modular_data,
    young_label,
)
from .modular_data import (
    DEFAULT_TOL,
    CurrentLayer,
    FusionTensor,
    InvalidModularData,
    ModularData,
    NonIntegralFusion,
    ScaleLimit,
    ValidationFailure,
    ValidationReport,
    anomaly_scalar,
    current_layer,
    fs_indicators,
    gauss_sum_delta,
    global_D,
    quantum_dim,
    quantum_dims,
    validate_modular_data,
    verlinde_fusion,
)
from .scaling import (
    ScalingPair,
    distinct_component_factor,
    mu_scaled,
    pair_key,
    pairing_normalization,
    quasi_iso_gamma,
    s_factor,
    same_component_factor,
    self_duality_scalar,
    solve_canonical,
    solve_strict,
    strict_gluing_normalization,
    symplectic_multiplicity,
    unitary_rho,
    z_of_label,
)
from .surfaces import (
    Component,
    MarkedPoint,
    Surface,
    check_gluing_dimension,
    disjoint_union,
    factorize,
    glue_points,
    reverse_orientation,
    sphere_with_labels,
    state_dim,
    state_dim_verlinde,
)

__version__ = "0.1.0"

# the imported names; the submodules bound by the imports above stay out
__all__ = sorted(
    name for name, value in vars().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
