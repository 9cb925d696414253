"""Pseudo-spectral wave flows with normalized-exponential (Liouville-type)
nonlinearities on the flat 2-torus: scalar symmetric/asymmetric families,
coupled systems with Cartan-matrix couplings, a contraction-map local solver,
conserved-energy diagnostics and concentration-based blow-up detection."""

from .blowup import (
    ConcentrationQuery,
    ConcentrationReport,
    MonitorThresholds,
    alarm_condition,
    ball_mass_map,
    blowup_monitor,
    bubble_field,
    concentration_window,
    density,
    detect_concentration,
)
from .fields import (
    StopReason,
    Trajectory,
    WaveState,
    random_smooth_field,
    wave_state_new,
)
from .functionals import (
    FunctionalReport,
    energy,
    evaluate_report,
    functional_J,
    grad_J,
    mt_residual,
)
from .picard import PicardReport, picard_radius, picard_solve, picard_time
from .propagator import (
    StepperConfig,
    duhamel_step,
    evolve,
    linear_flow,
)
from .rhs import (
    CouplingConfig,
    CouplingMatrix,
    DynamicRangeError,
    cartan_matrix,
    coupling_matrix_from_entries,
    equation_measures,
    rhs_fields,
    rhs_scalar,
    rhs_toda,
)
from .surface import SpectralGrid, make_torus_grid

__version__ = "0.1.0"
