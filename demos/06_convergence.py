"""Time-step convergence of the conservation error and the dissipation identity.

The density's surface mass is conserved exactly by the continuous flow;
the first-order time discretization leaves an O(dt) drift.  Likewise the
recorded energy-rate/dissipation-integral mismatch shrinks linearly in
dt.  This script runs a three-point dt ladder at modest resolution and
prints both observed orders.  ``convergence_sweep`` takes the problem and
its ladder; each ladder dt obeys the ``stepper.dt`` rule (it divides
``t_end``), and one that does not raises ``ConfigError`` before any run.

Run:  python3 demos/06_convergence.py
"""

from dataclasses import replace
from pathlib import Path

from gradflow import convergence_sweep, parse_config

config_path = Path(__file__).resolve().parent.parent / "configs" / "relaxation_64.cfg"
base = replace(
    parse_config(config_path.read_text()), t_end=0.05, record_every=10**9
)
dts = [4e-5, 2e-5, 1e-5]

print(f"running {len(dts)}-point dt ladder at {base.nx}x{base.ny} to t = {base.t_end} ...")
rows = convergence_sweep(base, dts, quantity="mass_error")

print(f"\n{'dt':>8} {'|mass error|':>14} {'order':>7} {'dissipation mismatch':>22}")
for row in rows:
    order = "-" if row.observed_order is None else f"{row.observed_order:.3f}"
    print(f"{row.parameter:8.0e} {row.error:14.6e} {order:>7} {row.dissipation_mismatch:22.6e}")

ratios = [
    a.dissipation_mismatch / b.dissipation_mismatch for a, b in zip(rows, rows[1:])
]
print(f"\nmismatch shrink factors per dt halving: {[f'{r:.2f}' for r in ratios]}")
print("both quantities converge at first order in dt, as the scheme promises")
