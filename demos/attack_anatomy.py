"""Anatomy of a symmetric collective attack.

Builds one BB84 attack and one six-state attack, prints the ancilla
vectors and the reduced states on both ends of the channel, and shows why
a generic two-angle BB84 attack cannot masquerade as a six-state attack.
"""

import math

import numpy as np

from symqkd.attack import (
    AttackParams,
    bob_state,
    eve_state,
    induced_ancillas,
    verify_symmetry,
)
from symqkd.smallmat import hermitian_eigenvalues, is_isometry

np.set_printoptions(precision=6, suppress=True)

print("=" * 64)
print("BB84 attack with x = y = pi/3  (QBER 25%)")
print("=" * 64)
params = AttackParams("bb84", math.pi / 3, math.pi / 3)
print(f"fidelity F = {params.fidelity:.6f}, QBER D = {params.qber:.6f}")

v = params.isometry
print("\nancilla vectors (undisturbed branch / flipped branch):")
for name, vec in zip(("F0", "D0", "F1", "D1"), induced_ancillas(v, "Z")):
    print(f"  {name} = {vec.real}")

print(f"\nisometry check  V^dag V = I:  {is_isometry(v, 1e-12)}")

print("\nBob's reduced state for input |0>:")
print(bob_state(v, "0").real)
print("-> diagonal (F, D): the signal flips with probability D.")

rho_e = eve_state(v, "0")
print("\nEve's reduced state for input |0> has spectrum:")
print(hermitian_eigenvalues(rho_e))
print("-> rank 2 with weights (F, D); its entropy is H(D).")

print("\nsymmetry residuals in the protocol bases (all ~1e-16):")
for (basis, cond), val in verify_symmetry(params).items():
    print(f"  {basis}:{cond:<12s} {val:.3e}")

print()
print("=" * 64)
print("A BB84 attack with y != pi/2 fails in the Y basis")
print("=" * 64)
lopsided = AttackParams("bb84", 0.7, 1.5)
y_residuals = verify_symmetry(lopsided, bases=("Y",))
print(f"max Y-basis residual for S(0.7, 1.5): {max(y_residuals.values()):.3e}")
print("-> only y = pi/2 extends the symmetry to all three bases, which is")
print("   exactly the six-state attack family:")
six = AttackParams("six-state", 0.7)
print(f"max residual of the six-state attack over Z, X, Y: {max(verify_symmetry(six).values()):.3e}")
