"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
a FAIL line is always followed by the assertion failure).
"""
import json
from math import sqrt

import numpy as np
import pytest

import wteleport.concurrence
from wteleport import (
    BellOutcome,
    BobOutcome,
    branch_map,
    concurrence_mixed,
    input_concurrence,
    input_pair,
    predicted_concurrence_phi,
    predicted_concurrence_psi,
    quartic,
    quartic_roots,
    run_protocol_mixed,
    run_protocol_pure,
    werner,
)
from wteleport.cli import main

N_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
ALPHA_SQ_GRID = tuple(np.linspace(0.05, 0.95, 19))
P_GRID = tuple(np.linspace(0.0, 1.0, 11))

PHI_ZERO = ((BellOutcome.PHI_PLUS, BobOutcome.ZERO), (BellOutcome.PHI_MINUS, BobOutcome.ZERO))
PSI_ZERO = ((BellOutcome.PSI_PLUS, BobOutcome.ZERO), (BellOutcome.PSI_MINUS, BobOutcome.ZERO))


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def pure_results():
    return {
        (n, s): run_protocol_pure(sqrt(s), n) for n in N_GRID for s in ALPHA_SQ_GRID
    }


@pytest.fixture(scope="module")
def werner_results():
    return {(n, p): run_protocol_mixed(p, n) for n in N_GRID for p in P_GRID}


def test_criterion_01_phi_branch_closed_form(pure_results):
    worst = 0.0
    for (n, s), result in pure_results.items():
        predicted = predicted_concurrence_phi(sqrt(s), n)
        for bell, bob in PHI_ZERO:
            worst = max(worst, abs(result.branch(bell, bob).concurrence - predicted))
    passed = worst <= 1e-10
    report(1, "Phi/Bob-0 concurrence matches its closed form", passed, f"max|diff|={worst:.3e}")
    assert passed


def test_criterion_02_psi_branch_closed_form(pure_results):
    worst = 0.0
    for (n, s), result in pure_results.items():
        predicted = predicted_concurrence_psi(sqrt(s), n)
        for bell, bob in PSI_ZERO:
            worst = max(worst, abs(result.branch(bell, bob).concurrence - predicted))
    passed = worst <= 1e-10
    report(2, "Psi/Bob-0 concurrence matches the mirrored form", passed, f"max|diff|={worst:.3e}")
    assert passed


def test_criterion_03_concurrence_preservation(pure_results):
    worst = 0.0
    for s in ALPHA_SQ_GRID:
        branch = pure_results[(1.0, s)].branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        worst = max(worst, abs(branch.concurrence - input_concurrence(sqrt(s))))
    for n, s in ((4.0, 1.0 / 3.0), (9.0, 1.0 / 4.0)):
        result = run_protocol_pure(sqrt(s), n)
        for bell, bob in PHI_ZERO:
            worst = max(
                worst, abs(result.branch(bell, bob).concurrence - input_concurrence(sqrt(s)))
            )
    passed = worst <= 1e-10
    report(
        3,
        "n=1 preserves every input; n=4,9 preserve their special inputs",
        passed,
        f"max|final-initial|={worst:.3e}",
    )
    assert passed


def test_criterion_04_bob_one_branches_dead(pure_results, werner_results):
    worst = 0.0
    for result in list(pure_results.values()) + list(werner_results.values()):
        for bell in BellOutcome:
            worst = max(worst, result.branch(bell, BobOutcome.ONE).concurrence)
    passed = worst < 1e-12
    report(4, "every Bob-outcome-1 branch carries no entanglement", passed, f"max={worst:.3e}")
    assert passed


def test_criterion_05_probabilities_and_path_agreement(pure_results, werner_results):
    worst_sum = 0.0
    for result in list(pure_results.values()) + list(werner_results.values()):
        worst_sum = max(worst_sum, abs(result.total_probability - 1.0))

    worst_branch = 0.0
    for (n, s), result in pure_results.items():
        amps = input_pair(sqrt(s)).amplitudes
        for branch in result.branches:
            image = branch_map(n, branch.bell, branch.bob) @ amps
            prob = float(np.vdot(image, image).real)
            worst_branch = max(worst_branch, abs(prob - branch.probability))
            if prob > 1e-14:
                overlap = abs(np.vdot(image / sqrt(prob), branch.post_state.amplitudes))
                worst_branch = max(worst_branch, abs(overlap - 1.0))
    passed = worst_sum <= 1e-12 and worst_branch <= 1e-10
    report(
        5,
        "probabilities sum to 1 and both execution paths agree",
        passed,
        f"max|sum-1|={worst_sum:.3e}, max branch diff={worst_branch:.3e}",
    )
    assert passed


def test_criterion_06_werner_baseline():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        worst = max(worst, abs(concurrence_mixed(werner(p)) - expected))
    passed = worst <= 1e-10
    report(6, "Werner concurrence equals max(0,(3p-1)/2)", passed, f"max|diff|={worst:.3e}")
    assert passed


def test_criterion_07_werner_protocol_at_unit_n(werner_results):
    worst_n1 = 0.0
    for p in P_GRID:
        if p <= 1.0 / 3.0:
            continue
        result = werner_results[(1.0, p)]
        expected = (3.0 * p - 1.0) / 2.0
        for bell, bob in PHI_ZERO + PSI_ZERO:
            worst_n1 = max(worst_n1, abs(result.branch(bell, bob).concurrence - expected))

    worst_pair = 0.0
    for result in werner_results.values():
        c_phi = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO).concurrence
        c_psi = result.branch(BellOutcome.PSI_PLUS, BobOutcome.ZERO).concurrence
        worst_pair = max(worst_pair, abs(c_phi - c_psi))
    passed = worst_n1 <= 1e-9 and worst_pair <= 1e-10
    report(
        7,
        "Werner oracle at n=1 gives (3p-1)/2; Phi and Psi cases agree",
        passed,
        f"max n=1 diff={worst_n1:.3e}, max case diff={worst_pair:.3e}",
    )
    assert passed


def test_criterion_08_documented_discrepancy_and_mutation(capsys, monkeypatch):
    code = main(["verify", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    row = next(
        r
        for r in payload["rows"]
        if r["mode"] == "werner"
        and r["n"] == 1.0
        and r["p"] == 1.0
        and r["bell"] == "PhiPlus"
        and r["bob"] == "Zero"
    )
    listed = (
        row["verdict"] == "DISCREPANT"
        and abs(row["formula_concurrence"] - 2.0) <= 1e-12
        and abs(row["oracle_concurrence"] - 1.0) <= 1e-10
    )

    mutated = wteleport.concurrence.SIGMA_YY.copy()
    mutated[0, 3] = -1.0
    with monkeypatch.context() as patch:
        patch.setattr(wteleport.concurrence, "SIGMA_YY", mutated)
        mutated_code = main(["verify"])
    capsys.readouterr()

    passed = code == 0 and listed and mutated_code == 1
    report(
        8,
        "verify exits 0 while listing the Werner mismatch; a corrupted spin flip exits 1",
        passed,
        f"exit={code}, listed={listed}, mutated exit={mutated_code}",
    )
    assert passed


def test_criterion_09_quartic_report():
    quartic_at_one = quartic(1.0)
    report_obj = quartic_roots()
    r1, r2 = report_obj.roots_positive
    signs = tuple(region.sign for region in report_obj.sign_regions)
    passed = (
        abs(quartic(r1)) <= 1e-8
        and abs(quartic(r2)) <= 1e-8
        and 0.0 < r1 < 0.1
        and 2.0 < r2 < 3.0
        and quartic_at_one == -48.0
        and signs == (1, -1, 1)
    )
    report(
        9,
        "quartic has roots in (0,0.1) and (2,3) with sign pattern (+,-,+)",
        passed,
        f"r1={r1:.6g}, r2={r2:.6g}, quartic(1)={quartic_at_one}",
    )
    assert passed


def test_criterion_10_unimodality():
    ok = True
    for n in N_GRID:
        values = [predicted_concurrence_phi(sqrt(s), n) for s in np.linspace(0.01, 0.99, 99)]
        diffs = np.diff(values)
        signs = [int(np.sign(d)) for d in diffs if abs(d) > 1e-12]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        ok = ok and changes == 1 and signs[0] == 1 and signs[-1] == -1
    report(10, "branch concurrence rises to one peak then falls", ok, f"grid n={N_GRID}")
    assert ok
