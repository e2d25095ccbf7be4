#!/usr/bin/env python3
"""Teleport half of a Werner pair and audit the closed-form prediction.

The Werner family p|Phi+><Phi+| + (1-p)/4 I is entangled exactly when
p > 1/3, with concurrence (3p-1)/2.  Running it through the channel uses the
per-branch linear maps (the post-selected Kraus operators) rather than a
five-qubit density matrix; linearity makes the two equivalent.

The closed-form branch prediction 4 sqrt(n) (3p-1)/(n+1)^2 disagrees with
the branch-map oracle: at n = 1, p = 1 it claims 2.0 where the oracle (and
physics: concurrence never exceeds 1) gives 1.0.  The sweep machinery flags
those rows as DISCREPANT instead of hiding the mismatch.
"""
import numpy as np

from wteleport import (
    BellOutcome,
    BobOutcome,
    concurrence_mixed,
    predicted_concurrence_werner,
    run_protocol_mixed,
    sweep,
    werner,
)
from wteleport.protocol import BRANCH_ORDER

# Baseline: the input family itself.
print("Werner input concurrence (threshold p = 1/3)")
for p in (0.0, 1.0 / 3.0, 0.6, 1.0):
    print(f"  p={p:.4f}: {concurrence_mixed(werner(p)):.6f} "
          f"(expected {max(0.0, (3 * p - 1) / 2):.6f})")
print()

# One full mixed run.  Both Phi and Psi branches keep the same concurrence.
N, P = 2.0, 0.8
result = run_protocol_mixed(P, N)
print(f"mixed run at n={N}, p={P}")
for branch in result.branches:
    print(f"  {branch.bell.value:<9}{branch.bob.value:<5} "
          f"probability={branch.probability:.6f} concurrence={branch.concurrence:.6f}")
print()

# Oracle vs closed form along p at n = 1.
print("oracle vs closed form at n=1 (Phi+/0 branch)")
print(f"{'p':>6} {'oracle':>10} {'formula':>10}")
for p in np.linspace(0.4, 1.0, 7):
    branch = run_protocol_mixed(p, 1.0).branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
    print(f"{p:>6.2f} {branch.concurrence:>10.6f} "
          f"{predicted_concurrence_werner(p, 1.0):>10.6f}")
print()

table = sweep("werner", n_values=(1.0,), p_values=(1.0,))
flagged = np.flatnonzero(~table.match[0])
print(f"sweep verdicts at n=1, p=1: {flagged.size} of {len(table)} rows DISCREPANT")
for k in flagged:
    bell, bob = BRANCH_ORDER[k]
    print(f"  {bell.value}/{bob.value}: oracle={table.oracle[0, k]:.6f} "
          f"formula={table.formula[0, k]:.6f}")
