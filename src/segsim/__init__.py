"""Deterministic simulator and analysis toolkit for two-type segregation
dynamics on a torus grid, with structural detectors, percolation utilities,
closed-form thresholds, and statistical checks."""

__version__ = "0.1.0"

from .grid import (
    ConfigError,
    FlipEvent,
    GridConfig,
    GridState,
    Happiness,
    IneligibleFlipError,
    apply_flip,
    happiness_state,
    new_random,
    plus_count_in_rect,
    state_from_types,
)
from .dynamics import (
    CascadeResult,
    RunLimits,
    RunReport,
    TerminationReason,
    cascade_closure,
    lyapunov,
    run_to_termination,
)
from .snapshot import snapshot_read, snapshot_write
from .rng import RNG_ID, generator

__all__ = [
    "__version__",
    "ConfigError",
    "FlipEvent",
    "GridConfig",
    "GridState",
    "Happiness",
    "IneligibleFlipError",
    "apply_flip",
    "happiness_state",
    "new_random",
    "plus_count_in_rect",
    "state_from_types",
    "CascadeResult",
    "RunLimits",
    "RunReport",
    "TerminationReason",
    "cascade_closure",
    "lyapunov",
    "run_to_termination",
    "snapshot_read",
    "snapshot_write",
    "RNG_ID",
    "generator",
]
