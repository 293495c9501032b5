"""The benchmark's workloads: a seed and a workload name make one gradflow config.

Every workload is the shipped 64-squared relaxation problem
(``configs/relaxation_64.cfg``) with a few keys overridden.  The program only
ever sees the generated config text.

Seed 0 keeps the shipped initial data exactly.  Any other seed perturbs
``initial.h_amplitude`` and ``initial.psi`` each by at most 0.2 % of their
shipped values.  The perturbation depends on ``seed % N_VARIANTS`` only, so
that ``references.json`` can hold a stored final record for every input the
benchmark can generate.
"""

from __future__ import annotations

import hashlib

N_VARIANTS = 64
PERTURBATION = 0.002  # largest relative change of h_amplitude and psi

# configs/relaxation_64.cfg, key for key.  test_harness.py checks that the
# seed-0 base config parses to the same RunConfig as the shipped file.
SHIPPED_64 = {
    "grid.nx": "64",
    "energy.kind": "flory_huggins",
    "energy.sigma0": "1.0",
    "energy.beta": "0.75",
    "energy.chi": "0.0",
    "mobility.m_x": "5.0",
    "mobility.m_psi": "1.0",
    "stepper.dt": "4e-5",
    "run.t_end": "0.8",
    "run.record_every": "250",
    "run.output_dir": "out/relaxation_64",
    "initial.psi": "0.25",
}
SHIPPED_H_AMPLITUDE = 1.0  # the config-file default, not set in the file


def _snapshot_every(steps: int, dt: float, n_snapshots: int) -> str:
    return ", ".join(repr(round(k * steps * dt, 12)) for k in range(1, n_snapshots + 1))


# name -> keys overridden on top of the shipped problem.  The run lengths are
# shortened so that one simulate call takes about 1.3 s on a 2-core x86 VM;
# a timed run then holds a dozen or more fresh processes.
OVERRIDES = {
    # 500 steps; records at steps 0, 250 and 500.
    "relax64": {"run.t_end": "0.02"},
    # 40 steps; record_every beyond the step count leaves only the start
    # and end records.
    "relax256": {
        "grid.nx": "256",
        "stepper.dt": "1e-5",
        "run.t_end": "0.0004",
        "run.record_every": "100000",
    },
    # 500 steps, a record after every step and a snapshot every 25 steps.
    "record64_normal": {
        "model.variant": "normal_only",
        "stepper.scheme": "explicit_euler",
        "run.t_end": "0.02",
        "run.record_every": "1",
        "run.snapshot_times": _snapshot_every(25, 4e-5, 20),
    },
}

# Largest |mass_error| / mass accepted at the final record: about ten times
# what each workload shows at seed 0 with the first-order steppers.
MASS_ERROR_BOUND = {
    "relax64": 1e-4,
    "relax256": 1e-6,
    "record64_normal": 1e-6,
}


def _unit(seed: int, field: str) -> float:
    """Deterministic uniform number in [-1, 1) from the seed variant."""
    digest = hashlib.sha256(f"gradflow-bench/{seed % N_VARIANTS}/{field}".encode()).digest()
    return 2.0 * int.from_bytes(digest[:8], "big") / 2.0**64 - 1.0


def initial_data(seed: int) -> tuple[float, float]:
    """``(initial.h_amplitude, initial.psi)`` for a seed."""
    if seed % N_VARIANTS == 0:
        return SHIPPED_H_AMPLITUDE, float(SHIPPED_64["initial.psi"])
    amp = SHIPPED_H_AMPLITUDE * (1.0 + PERTURBATION * _unit(seed, "h_amplitude"))
    psi = float(SHIPPED_64["initial.psi"]) * (1.0 + PERTURBATION * _unit(seed, "psi"))
    return round(amp, 9), round(psi, 9)


def base_keys(seed: int) -> dict[str, str]:
    """The shipped relaxation problem with the seed's initial data."""
    keys = dict(SHIPPED_64)
    if seed % N_VARIANTS != 0:
        amp, psi = initial_data(seed)
        keys["initial.h_amplitude"] = repr(amp)
        keys["initial.psi"] = repr(psi)
    return keys


def config_text(workload: str, seed: int) -> str:
    """The config document the program receives for a workload and seed."""
    if workload not in OVERRIDES:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(OVERRIDES)}")
    keys = {**base_keys(seed), **OVERRIDES[workload]}
    lines = [f"# perfbench workload {workload}, seed {seed}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"
