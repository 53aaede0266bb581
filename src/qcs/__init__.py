"""Deterministic single-value assignments for finite-dimensional quantum
observables, with exact distribution checks and lifted unitary dynamics."""

from .errors import QcsError
from .spectral import (
    EigenSystem,
    HermitianOperator,
    PiecewiseFn,
    PureState,
    StepCDF,
    borel_apply,
    eigensystem,
    spectral_cdf,
)
from .measure_maps import (
    MapSpec,
    PiecewiseAffineMap,
    PiecewiseConstantDensity,
    PiecewiseConstantFn,
    build_map,
    compose,
    factor_against_cdf,
    invert,
    level_function,
    map_equal_ae,
    pushforward_density,
    quantile_pcf,
    verify_measure_preserving,
)
from .states import (
    BarrierComplex,
    CompleteState,
    ObservableFunction,
    expectation_via_labels,
    monotone_compose_check,
    no_go_witness,
    repair_barrier,
    sample_values,
    sigma_simple_regions,
    squaring_witness_model,
    value,
    value_distribution,
)
from .dynamics import (
    ComplexObservable,
    EquivalenceComplex,
    LiftedAutomorphism,
    UnitaryOperator,
    algebra_product,
    dispersion,
    evolution_expectation_check,
    evolve,
    gradient_check,
    heisenberg_check,
    intertwine_check,
    lift_unitary,
    quadratic_form,
    schrodinger_equivalence_check,
)
from .phase_space import (
    PhaseSpaceMeasure,
    PhaseSpaceState,
    build_measure,
    cell_observable,
    momentum_observable,
    position_observable,
    spin_observable,
    to_unit_interval,
)
from .stats import ks_statistic, ks_threshold

__version__ = "0.1.0"
