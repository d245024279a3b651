"""Entanglement polygon inequalities on multi-qudit pure states.

Bipartite measures (geometric, negativity, concurrence, q-concurrence) across
one-to-rest cuts, polygon-inequality residuals for arbitrary partitions and
exponents, closed-form state families, and deterministic randomized audits.
"""

import types as _types

from .gallery import (
    BISEP_TOL,
    EXAMPLE1_PAPER_VALUES,
    AcinParams,
    GWSpec,
    ProductPurificationSpec,
    acin_cut_determinants,
    acin_is_biseparable,
    acin_params,
    acin_schmidt_spectra,
    acin_state,
    example3_gw_spec,
    ghz_state,
    gw_coarse_grain,
    gw_negativity_closed,
    gw_spec,
    gw_state,
    named_state,
    negativity_gap_closed,
    product_purification,
    w_state,
)
from .measures import (
    CONCURRENCE,
    GEM,
    NEGATIVITY,
    MeasureKind,
    measure_value,
    negativity,
    negativity_pure_schmidt,
    q_concurrence_kind,
    wootters_concurrence,
)
from .polygon import (
    MEASURE_FLOOR,
    VIOLATION_TOL,
    AuditSummary,
    EpiReport,
    alpha_sweep,
    audit_plan,
    audit_random,
    audit_trial_report,
    epi_report,
    epi_residuals,
    indicator_delta,
    one_to_rest_values,
    power_inequality_holds,
    sample_state,
)
from .tensor import (
    HERMITIAN_TOL,
    NORM_TOL,
    PSD_TOL,
    DensityOp,
    DimensionProfile,
    InputError,
    Ket,
    Partition,
    basis_ket,
    density_of,
    flat_index,
    haar_random_ket,
    iter_partitions,
    partial_trace,
    partial_transpose,
    random_density,
    reduced_spectrum,
    schatten_norm,
)

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
