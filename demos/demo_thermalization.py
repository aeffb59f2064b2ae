#!/usr/bin/env python3
"""Relaxation of a qubit under Ohmic bit-flip noise, no driving.

Starting from the excited state s = (0, 0, 1), the Bloch vector decays to
the thermal polarization (0, 0, -tanh(1/2T)) while the linear entropy
first grows (the state mixes) and then falls back as the qubit settles
into the nearly pure thermal state at low temperature.
"""

import math

import numpy as np

from drivenqubit import BathSpec, Drive, evolve, rate_static, steady_state

ALPHA = 0.01
OMEGA_C = 500.0

for temperature in (0.2, 1.0, 5.0):
    bath = BathSpec(ALPHA, OMEGA_C, temperature)
    gamma = rate_static(bath)
    traj = evolve(bath, Drive(), (0.0, 0.0, 1.0),
                  t_max=10.0 / gamma, dt_out=0.5 / gamma, tol=1e-10)
    target = steady_state(bath)

    print(f"T = {temperature:4.1f}   Gamma = {gamma:.4e}   "
          f"s_z(final) = {traj.s[-1][2]:+.6f}   "
          f"thermal = {target[2]:+.6f}   "
          f"S(max) = {traj.entropy.max():.4f}")

print()
print("Entropy history at T = 1 (time in units of 1/Gamma):")
bath = BathSpec(ALPHA, OMEGA_C, 1.0)
gamma = rate_static(bath)
traj = evolve(bath, Drive(), (0.0, 0.0, 1.0),
              t_max=10.0 / gamma, dt_out=1.0 / gamma, tol=1e-10)
for t, entropy in zip(traj.t, traj.entropy):
    bar = "#" * int(120 * entropy)
    print(f"  t*Gamma = {t * gamma:5.1f}   S = {entropy:.4f} {bar}")

print()
print(f"steady state check: -tanh(1/2T) = {-math.tanh(0.5):+.6f}, "
      f"reached to {abs(traj.s[-1][2] - steady_state(bath)[2]):.1e}")
