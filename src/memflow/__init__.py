"""memflow: pseudo-spectral 2D incompressible viscoelastic flow with
fading-memory integral constitutive laws, instrumented so that every
machine-checkable a priori bound runs as a falsifiable diagnostic."""

from .agegrid import AgeGrid, HistoryTooLongError, build_age_grid, quadrate
from .config import ConfigError, SimulationConfig, parse_config
from .constitutive import (
    MemoryKernel,
    SingularOriginError,
    StrainMeasure,
    model_catalog,
    verify_h1,
    verify_h2,
)
from .diagnostics import (
    DiagnosticsRecord,
    OracleState,
    monitor,
    oldroyd_differential_step,
    shear_startup_stress,
    steady_shear_stress,
    theorem_bound_report,
)
from .simulation import RunResult, run
from .spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from .stepper import FlowState, advance_flow, cfl_dt, kinetic_energy, step_velocity
from .stress import assemble_stress, history_scan, stress_gradient_norm
from .transport import (
    DeformationHistory,
    age_shift,
    init_history,
    stretch_advect_step,
)

__version__ = "0.1.0"
