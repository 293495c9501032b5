"""Tangential transport accelerates relaxation.

Runs the same initial film twice: once with the fully coupled flow
(normal motion + tangential material velocity + transported density) and
once with the tangential velocity constrained to zero.  Past a short
transient the coupled flow sits at or below the normal-only flow in
energy, and it ends with a narrower density range -- the tangential
velocity actively mixes the surfactant.

Run:  python3 demos/04_full_vs_normal.py
"""

from dataclasses import replace
from pathlib import Path

from gradflow import compare_variants, parse_config

config_path = Path(__file__).resolve().parent.parent / "configs" / "relaxation_64.cfg"
config = replace(parse_config(config_path.read_text()), t_end=0.2)

print(f"running both variants of the {config.nx}x{config.ny} relaxation to t = {config.t_end} ...")
result = compare_variants(config)

print(f"\n{'t':>6} {'U (coupled)':>14} {'U (normal-only)':>16} {'difference':>12}")
for rf, rn in zip(result.full.records, result.normal.records):
    print(f"{rf.t:6.3f} {rf.energy:14.8f} {rn.energy:16.8f} {rf.energy - rn.energy:12.3e}")

rf, rn = result.full.records[-1], result.normal.records[-1]
print(f"\nenergy ordered past t = {result.transient_window}: {result.energy_ordered}")
print(
    f"final density range: {rf.psi_max - rf.psi_min:.4e} (coupled) vs "
    f"{rn.psi_max - rn.psi_min:.4e} (normal-only); smaller: {result.final_range_smaller}"
)
