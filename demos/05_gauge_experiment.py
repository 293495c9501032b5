"""Why the density's response to surface motion matters.

Deriving the quadratic-energy flow with the density held pointwise fixed
under virtual surface deformations (the "material gauge") flips the sign
of every spatial force term.  The resulting system is not a descent flow:
with a small surface mobility coefficient m_x it *raises* the energy,
while the standard (Truesdell-gauge) twin run from the same initial data
dissipates monotonically.  This script reproduces that contrast.

Run:  python3 demos/05_gauge_experiment.py
"""

import numpy as np

from gradflow import (
    FlowState,
    Grid,
    Mobilities,
    ModelVariant,
    Quadratic,
    StepperConfig,
    evaluate,
    record,
    step,
)

grid = Grid(64, 64)
h0 = grid.from_function(lambda x, y: 0.05 * np.sin(2 * x) * np.sin(2 * y))
psi0 = grid.from_function(lambda x, y: 0.5 + 0.02 * np.sin(x) * np.sin(y))
mobilities = Mobilities(m_x=0.01, m_psi=1.0)
model = Quadratic(1.0)
stepper = StepperConfig(dt=1e-6)


def trajectory(variant):
    ev = evaluate(FlowState(0.0, h0, psi0), variant, mobilities, model)
    energies = [record(ev).energy]
    for i in range(1, 201):
        ev = evaluate(step(ev, stepper), variant, mobilities, model)
        if i % 20 == 0:
            energies.append(record(ev).energy)
    return energies


u_gauge = trajectory(ModelVariant.MATERIAL_GAUGE_QUADRATIC)
u_twin = trajectory(ModelVariant.FULL_COUPLED)

print(f"{'step':>5} {'U material gauge':>18} {'U standard gauge':>18}")
for k, (ug, ut) in enumerate(zip(u_gauge, u_twin)):
    print(f"{20 * k:5d} {ug:18.12f} {ut:18.12f}")

print(f"\nmaterial gauge:  dU = {u_gauge[-1] - u_gauge[0]:+.3e}  (energy rises)")
print(f"standard gauge:  dU = {u_twin[-1] - u_twin[0]:+.3e}  (energy falls)")
