"""Pseudospectral simulator for surface gradient flows of density energies.

The package integrates the coupled evolution of a periodic graph surface
``z = h(x, y, t)`` and a conserved scalar density ``psi`` carried on it,
driven by steepest descent of ``U = integral f(psi) dS``: the surface by
L2 descent, the density by H^-1 descent.  Everything is spectral on a
uniform periodic grid; time stepping is first order (explicit or
stabilized semi-implicit).

Samples enter as a :class:`ScalarField` (an array with its grid): the grid's
constructors, a state's ``h`` and ``psi``, and a snapshot.  Everything
computed from them -- derivatives, the geometry cache, an evaluation's
rates -- is a plain array.  Every run takes one path, :func:`evaluate`
then :func:`step` and :func:`record`, and the package exports what its runs
call; only :func:`derivatives` and :func:`get_fft_workers` are kept for the
benchmark in ``perfbench/``.

Quick start::

    from pathlib import Path

    from gradflow import parse_config, simulate

    config = parse_config(Path("configs/relaxation_128.cfg").read_text())
    result = simulate(config)
    print(result.records[-1].energy)
"""

from .config import (
    ConfigError,
    RunConfig,
    build_grid,
    format_config,
    initial_state,
    parse_config,
)
from .diagnostics import DiagnosticsRecord, record
from .energy import (
    CLAMP_EPS,
    Constant,
    EnergyModel,
    FloryHuggins,
    Linear,
    Quadratic,
)
from .flow import (
    Evaluation,
    FlowState,
    Mobilities,
    ModelVariant,
    Scheme,
    SolverAbort,
    StepperConfig,
    evaluate,
    step,
)
from .geometry import (
    GeometryCache,
    build_cache,
    covariant_norm_sq,
    surface_integral,
)
from .runner import (
    CompareResult,
    ConvergenceRow,
    RunResult,
    compare_variants,
    convergence_sweep,
    simulate,
)
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .spectral import (
    Grid,
    ScalarField,
    derivatives,
    get_fft_workers,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectral
    "Grid",
    "ScalarField",
    "derivatives",
    "get_fft_workers",
    # geometry
    "GeometryCache",
    "build_cache",
    "covariant_norm_sq",
    "surface_integral",
    # energy
    "CLAMP_EPS",
    "EnergyModel",
    "Constant",
    "Linear",
    "Quadratic",
    "FloryHuggins",
    # flow
    "ModelVariant",
    "Scheme",
    "Mobilities",
    "StepperConfig",
    "FlowState",
    "SolverAbort",
    "Evaluation",
    "evaluate",
    "step",
    # diagnostics
    "DiagnosticsRecord",
    "record",
    # config
    "ConfigError",
    "RunConfig",
    "parse_config",
    "format_config",
    "build_grid",
    "initial_state",
    # snapshot
    "SnapshotError",
    "read_snapshot",
    "write_snapshot",
    # runner
    "RunResult",
    "simulate",
    "ConvergenceRow",
    "convergence_sweep",
    "CompareResult",
    "compare_variants",
]
