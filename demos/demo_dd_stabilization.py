#!/usr/bin/env python3
"""Continuous-wave dynamical decoupling: when does driving help?

A sigma_z drive with 2A/Omega = 2.4 (near the first J0 zero, the
continuous analogue of a pi-pulse train) shifts the noise the qubit sees
to multiples of the driving frequency.  Below the bath cutoff that makes
decoherence worse; far above the cutoff the stabilization factor
eta = (Gamma/2)/gamma_DD grows past 1 and driving helps for every
initial state, most dramatically at high temperature.
"""

import numpy as np

from drivenqubit import BathSpec, Drive, stabilization_eta

ALPHA = 0.01
OMEGA_C = 500.0
AMP_RATIO = 2.4
TEMPERATURES = (0.1, 1.0, 10.0)

omegas = np.geomspace(10.0, 1.0e4, 16)
# the whole (Omega, T) grid in one call: frequencies down, temperatures
# across
bath = BathSpec(ALPHA, OMEGA_C, np.array(TEMPERATURES))
table = stabilization_eta(bath, Drive("dd", AMP_RATIO, omegas[:, None]))

header = "Omega/Delta".rjust(12) + "".join(
    f"   eta(T={t:g})".rjust(14) for t in TEMPERATURES)
print(header)
for omega, etas in zip(omegas, table):
    marks = "".join(f"{eta:14.4g}" for eta in etas)
    note = ""
    if all(eta > 1.0 for eta in etas):
        note = "  <- guaranteed improvement"
    elif all(eta > 0.25 for eta in etas):
        note = "  <- improvement on average"
    print(f"{omega:12.1f}{marks}{note}")

print()
print("thresholds: eta > 1/4 improves the average over initial states,")
print("            eta > 1 improves every initial state")
print("the same table as CSV: drivenqubit fig1 --out fig1.csv")
