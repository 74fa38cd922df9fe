"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from logchoquard import (cli, energy, families, grids, kernel, solver,
                         spaces)
from logchoquard import nonlinearity as nl
from logchoquard.config import DEFAULTS
from logchoquard.spaces import PeriodicCoefficient
from test_cli import count_energy_evaluations

F1 = nl.NonlinearitySpec("exp_minus_one")
F2 = nl.NonlinearitySpec("power_exp", p=2.0, q=2.0)
V1 = PeriodicCoefficient(1.0)


@pytest.fixture(scope="module")
def accepted_solve():
    """Criterion 9's 128^2 solve, shared with criterion 10."""
    cfg = solver.SolverConfig(
        spec=F1, potential=V1, grid_kind="cartesian", domain_radius=16.0,
        resolution=128, max_iterations=8000, residual_tolerance=1e-4)
    start = time.time()
    result = solver.solve_mountain_pass(cfg)
    return result, time.time() - start


# level of the default 128^2 solve when the 16-node path phase alone
# drove the residual to 1e-4 (182 iterations)
DEFAULT_PATH_LEVEL = 0.0777016888


def test_c01_kernel_split_identity():
    start = time.time()
    r = np.geomspace(1e-6, 1e6, 100_000)
    _, _, total = kernel.kernel_split(r)
    eps = np.finfo(float).eps
    bound = 4 * eps * (1 + np.abs(np.log(r)))
    assert np.all(np.abs(total - np.log(1.0 / r)) <= bound)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: kernel split identity at 1e5 points "
          f"({elapsed:.3f} s)")


def test_c02_transform_bounds_and_roundtrip():
    r = np.geomspace(1e-6, 1e4, 10_000)
    chain1, chain2 = spaces.transform_bound_chains(r)
    assert np.all(chain1[0] < chain1[1]) and np.all(chain1[1] < chain1[2])
    assert np.all(chain2[0] < chain2[1]) and np.all(chain2[1] < chain2[2])
    probe = np.concatenate(([0.0, 3.7], np.geomspace(1e-6, 50.0, 10_000)))
    back = spaces.radial_map_T_inverse(spaces.radial_map_T(probe))
    err = float(np.max(np.abs(back - probe)))
    assert err <= 1e-10
    print(f"ACCEPTANCE 2 PASS: transform bound chains at 1e4 points, "
          f"inverse round-trip error {err:.2e} <= 1e-10")


def test_c03_norm_sandwich_family():
    start = time.time()
    grid = grids.build_grid("radial", 20.0, 2048)
    members = families.sandwich_family(grid)
    assert len(members) >= 10
    slack = 1.02
    for name, u in members:
        h1, w0, ratio = spaces.sandwich_ratio(u)
        assert h1 < 2.0 * w0 * slack, (name, ratio)
        assert h1 > w0 / 3.0 / slack, (name, ratio)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: norm sandwich on {len(members)} fields at "
          f"2048 nodes ({elapsed:.1f} s)")


def test_c04_weighted_tm_uniform_bound_and_blowup():
    ns = list(range(4, 257, 4))
    vals_2pi, vals_16pi = [], []
    for n in ns:
        _, field = energy.moser_cap(n, 0.5, energy.moser_grid(n, 0.5))
        nrm = spaces.norm_w0_sq(field)
        scaled = field.with_values(field.values / math.sqrt(nrm))
        vals_2pi.append(spaces.tm_functional(scaled, 2 * np.pi).value)
        vals_16pi.append(spaces.tm_functional(scaled, 16 * np.pi).value)
    last4 = vals_2pi[-4:]
    ratio = max(last4) / min(last4)
    assert ratio <= 1.5
    assert all(b > a for a, b in zip(vals_16pi, vals_16pi[1:]))
    growth = vals_16pi[-1] / vals_16pi[0]
    assert growth >= 10.0
    print(f"ACCEPTANCE 4 PASS: alpha=2pi bounded (last-four ratio "
          f"{ratio:.3f} <= 1.5); alpha=16pi monotone blow-up x{growth:.2e}")


def test_c05_fast_vs_direct_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for size in (16, 32, 64):
        grid = grids.build_grid("cartesian", 4.0, size)
        pairs = [(families.random_smooth(grid, rng),
                  families.random_smooth(grid, rng)) for _ in range(20)]
        for (u, v), ref in zip(pairs, kernel.bilinear_direct_many(pairs)):
            fast = kernel.bilinear_fast(u, v)
            for which in ("B0", "B1", "B2"):
                err = abs(fast.value(which) - ref.value(which))
                assert err <= 1e-6 * (1 + abs(ref.value(which))), (size, which)
                worst = max(worst, err / (1 + abs(ref.value(which))))
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 PASS: fast-vs-direct on 20 pairs x (16^2, 32^2, "
          f"64^2), worst relative error {worst:.2e} ({elapsed:.0f} s)")


def test_c06_gradient_consistency():
    grid = grids.build_grid("radial", 10.0, 1024)
    h = 1e-4
    worst = 0.0
    for spec in (F1, F2):
        rng = np.random.default_rng(42)
        for _ in range(10):
            u = families.random_smooth(grid, rng, positive=True, max_center=1.5)
            u = u.with_values(0.3 * u.values / max(np.abs(u.values).max(), 1e-9))
            phi = families.random_smooth(grid, rng, max_center=1.5)
            phi = phi.with_values(phi.values / max(np.abs(phi.values).max(), 1e-9))
            pair = energy.pair_gradient(
                energy.energy_gradient(u, spec, V1).field, phi)
            up = u.with_values(u.values + h * phi.values)
            um = u.with_values(u.values - h * phi.values)
            fd = (energy.total_energy(up, spec, V1)
                  - energy.total_energy(um, spec, V1)) / (2 * h)
            rel = abs(pair - fd) / (1 + abs(pair))
            assert rel <= 1e-5
            worst = max(worst, rel)
    print(f"ACCEPTANCE 6 PASS: gradient vs central differences on 10 pairs "
          f"for F1 and F2(p=2), worst relative error {worst:.2e} <= 1e-5")


def test_c07_moser_machinery():
    grid = energy.moser_grid(64, 0.5)
    _, cap_field = energy.moser_cap(64, 0.5, grid)
    dirichlet = grids.dirichlet_energy(cap_field)
    assert abs(dirichlet - 1.0) <= 0.02

    # closed form matches the q = 2 arithmetic reduction exactly
    for n in (16, 32, 64):
        lhs = energy.delta_n_closed_form(n, 0.5, 2.0, 1.0)
        rhs = 0.25 / (4 * math.log(n)) * (1.0 + 2.5 * math.log(1.5))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    for n in (16, 32, 64):
        cap, field = energy.moser_cap(n, 0.5, energy.moser_grid(n, 0.5))
        excess = spaces.norm_1qw_sq(field, 2.0, V1) - 1.0
        assert 0.0 <= excess <= cap.delta_n + 5.0 / math.log(n), n
    print(f"ACCEPTANCE 7 PASS: Moser cap Dirichlet energy {dirichlet:.4f} "
          f"(within 2%), closed-form delta_n exact at q=2, norm band holds "
          f"for n in (16, 32, 64)")


def test_c08_script_V_and_level_estimate():
    value, argmin = nl.compute_script_V(2.0, 1.0)
    rho = np.linspace(0.5 / 1_000_000, 0.5, 1_000_000)
    oracle = float(np.min(rho**-4.0
                          * np.exp(rho**2 * (1.0 + 2.5 * np.log1p(rho)))
                          / np.pi**3))
    assert abs(value - oracle) <= 1e-6 * oracle

    family = []
    for n in (8, 16, 32, 64):
        g = energy.moser_grid(n, 0.5)
        cap, w = energy.moser_cap(n, 0.5, g)
        w = w.with_values(w.values / math.sqrt(1.0 + cap.delta_n))
        family.append(({"n": n}, w))
    bound, _, _ = energy.mp_level_upper_bound(F1, V1, family)
    assert 0.0 < bound < 0.5
    print(f"ACCEPTANCE 8 PASS: script-V {value:.6f} matches 1e6-point scan "
          f"oracle to 1e-6; mountain-pass upper bound {bound:.4f} in (0, 1/2) "
          f"for F1")


def test_c09_geometry_and_solve(accepted_solve):
    result, elapsed = accepted_solve
    assert elapsed < 600.0
    assert result.delta0 > 0
    assert result.converged and result.status == "converged"
    assert result.residual <= 1e-4
    assert 0.0 < result.level < 0.5
    assert np.min(result.field.values) >= 0.0
    # the descent hands over below residual 2e-2 and Newton finishes: 11
    # iterations and 2 Newton steps, + 7%
    assert result.iterations <= 12 and result.newton_steps <= 4
    assert result.recentering_shift == (0, 0)
    assert abs(result.level - DEFAULT_PATH_LEVEL) <= 1e-7 * DEFAULT_PATH_LEVEL
    # the residual bounds the pairing with 20 random smooth directions of
    # weighted norm one on the final field
    grid = result.field.grid
    grad = energy.energy_gradient(result.field, F1, V1).field
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        phi = families.random_smooth(grid, rng, max_center=0.4 * grid.domain_radius)
        norm = math.sqrt(spaces.norm_1qw_sq(phi, F1.q, V1))
        worst = max(worst, abs(energy.pair_gradient(grad, phi)) / norm)
    assert worst <= result.residual * (1 + 1e-9)
    print(f"ACCEPTANCE 9 PASS: 128^2 solve converged in {result.iterations} "
          f"iterations and {result.newton_steps} Newton steps "
          f"({elapsed:.0f} s), level {result.level:.4f} in (0, 1/2), "
          f"residual {result.residual:.2e} <= 1e-4, field nonnegative, "
          f"20-direction pairing {worst:.2e}")


def test_c10_ps_diagnostics(accepted_solve):
    result, _ = accepted_solve
    diag = solver.ps_diagnostics(result.field_trace, F1, V1,
                                 level=result.level)
    assert np.isfinite(diag.sup_norm_V_sq)
    expected_alpha = min(1.2, 0.9 / (2 * result.level))
    assert abs(diag.alpha - expected_alpha) < 1e-12
    assert np.all(np.isfinite(diag.integrability))
    quarter = max(2, len(diag.integrability) // 4)
    tail = diag.integrability[-quarter:]
    spread = (tail.max() - tail.min()) / tail.max()
    assert spread <= 0.05
    print(f"ACCEPTANCE 10 PASS: sup ||u||_V^2 = {diag.sup_norm_V_sq:.4f} "
          f"finite; int F^alpha stable to {100 * spread:.2f}% over the last "
          f"quarter at alpha = {diag.alpha:.3f}")


def test_c11_assumption_checkers():
    report = nl.check_assumptions(F1)
    assert abs(report.delta_estimate - 0.5) <= 0.02
    assert report.f3_ok
    assert report.ar_improved_ok
    rep = nl.check_assumptions(nl.NonlinearitySpec("power_exp", p=2.0, q=2.0))
    assert rep.f4_ok
    print(f"ACCEPTANCE 11 PASS: F1 delta {report.delta_estimate:.4f} "
          f"~ 0.5 +- 0.02, (f3) holds, AR improvement holds; F2(p=2) "
          f"passes (f4) with tail power {rep.f4_tail_power:g}")


C12_CONFIG = """
[nonlinearity]
kind = exp_minus_one
q = 2

[solver]
domain_radius = 6.0
resolution = 48
max_iterations = 2000
residual_tolerance = 2e-4
"""
# F1, V = 1, R = 16: the radial P1 (compact edge form) level at 1024 nodes
RADIAL_P1_LEVEL = 0.078195
# Call budgets of the C12 solve, each 7% over a count measured with numpy 2.4
# / scipy 1.17 to leave room for other library rounding.  The path phase
# alone took 2,516 total_energy calls before hump searches were gated by
# endpoint slopes (budget 2,700), then 410 + 123 gradients = 533
# evaluations (budget 608).  With the Newton phase it took 322
# total_energy calls, and 322 + 98 gradients + 3 linearizations + 18
# Hessian products = 441 evaluations (budget 472).  The descent on ray
# maxima, which replaced the 16-node path, takes 20 iterations and 1 Newton
# step: again 322 total_energy calls, and 322 + 21 gradients + 2
# linearizations + 11 Hessian products = 356 evaluations (budgets 345 and
# 381).  Handing over to Newton below residual 2e-2 instead of 1e-2 skips
# the descent's zigzag: 11 iterations and 2 Newton steps, 124 total_energy
# calls, and 124 + 12 gradients + 3 linearizations + 15 Hessian products
# = 154 evaluations.  Ray searches that walk from the last accepted scale
# instead of running Brent over [1/2, 3/2] take the same iterations and
# Newton steps with 86 total_energy calls, and 86 + 12 gradients + 3
# linearizations + 15 Hessian products = 116 evaluations (budgets: +7%).
# Ray levels now come from ``ray_energy`` closures; their calls and the
# total_energy calls are 86 energy evaluations again.  A zero recentering
# shift skips its two total_energy calls: 84.  ``linearize`` takes its
# gradient from ``energy_gradient``, so the 3 linearizations are counted
# there: 84 + 14 gradients (11 descent, 3 Newton) + 15 Hessian products
# = 113 evaluations.  Newton starts from the descent's last gradient: 84 +
# 13 gradients (11 descent, 2 Newton steps) + 15 Hessian products = 112.
C12_ENERGY_BUDGET = 92
C12_EVALUATION_BUDGET = 124


def test_c12_solve_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(C12_CONFIG)
    out, field = tmp_path / "det.json", tmp_path / "det.json.field"
    code1 = cli.main(["solve", "--config", str(cfg_path), "--seed", "11",
                      "--output", str(out)])
    bytes1, field1 = out.read_bytes(), field.read_bytes()
    code2 = cli.main(["solve", "--config", str(cfg_path), "--seed", "11",
                      "--output", str(out)])
    bytes2, field2 = out.read_bytes(), field.read_bytes()
    assert code1 == 0 and code2 == 0
    assert bytes1 == bytes2
    assert field1 == field2
    print("ACCEPTANCE 12 PASS: cmd_solve with a fixed seed "
          "is bit-identical across two runs (report and field file)")


def test_c12_level_and_energy_budget(tmp_path, monkeypatch):
    cfg_path = tmp_path / "c12.cfg"
    cfg_path.write_text(C12_CONFIG)
    calls = {}

    def counting(name):
        function = getattr(energy, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return function(*args)
        monkeypatch.setattr(energy, name, counted)
    energies = count_energy_evaluations(monkeypatch)
    counting("energy_gradient")
    counting("hessian_product")
    out = tmp_path / "c12.json"
    assert cli.main(["solve", "--config", str(cfg_path), "--seed", "11",
                     "--output", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["converged"] is True
    rel = abs(res["level"] - RADIAL_P1_LEVEL) / RADIAL_P1_LEVEL
    assert rel <= 0.01
    assert len(energies) <= C12_ENERGY_BUDGET
    evaluations = len(energies) + sum(calls.values())
    assert evaluations <= C12_EVALUATION_BUDGET
    assert res["newton_steps"] <= 4
    assert res["hessian_products"] == calls["hessian_product"]
    print(f"ACCEPTANCE 12b PASS: h = 0.25 lattice level {res['level']:.6f} "
          f"within {100 * rel:.2f}% of the radial P1 level {RADIAL_P1_LEVEL}; "
          f"{len(energies)} energy evaluations <= {C12_ENERGY_BUDGET}, "
          f"{evaluations} with gradients and Hessian products <= "
          f"{C12_EVALUATION_BUDGET}")


def _solve_at_blas_threads(tmp_path, config_text, seed, command="solve"):
    """(report lines without field_file, .field bytes or None) of one CLI
    run of ``command`` per BLAS thread count, 1 and 2, each in a fresh
    interpreter."""
    cfg_path = tmp_path / "threads.cfg"
    cfg_path.write_text(config_text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "logchoquard.cli", command,
                        "--config", str(cfg_path), "--seed", seed,
                        "--output", str(out)],
                       env=env, check=True, capture_output=True)
        report = [line for line in out.read_bytes().splitlines()
                  if b'"field_file"' not in line]
        field = tmp_path / f"threads{threads}.json.field"
        outputs.append((report, field.read_bytes() if field.exists() else None))
    return outputs


def test_c12_solve_independent_of_blas_threads(tmp_path):
    (report1, field1), (report2, field2) = _solve_at_blas_threads(
        tmp_path, C12_CONFIG, "11")
    assert report1 == report2
    assert field1 == field2
    print("ACCEPTANCE 12c PASS: the solve report and field file are "
          "byte-identical at one and two BLAS threads")


def test_default_solve_independent_of_blas_threads(tmp_path):
    # R = 16, 128^2: 16,384 nodes, enough for OpenBLAS to split
    # a level-1 or level-2 kernel across threads (48^2 has about 1,800)
    (report1, field1), (report2, field2) = _solve_at_blas_threads(
        tmp_path, "[nonlinearity]\nq = 2\n", "1")
    assert report1 == report2
    assert field1 == field2
    assert b'    "converged": true,' in report1
    print("ACCEPTANCE 12d PASS: the default 128^2 solve report and field "
          "file are byte-identical at one and two BLAS threads")


def test_radial_solve_independent_of_blas_threads(tmp_path):
    # the preconditioner solves run through SuperLU
    (report1, field1), (report2, field2) = _solve_at_blas_threads(
        tmp_path, "[nonlinearity]\nq = 2\n\n[solver]\ngrid_kind = radial\n"
        "resolution = 512\n", "1")
    assert report1 == report2
    assert field1 == field2
    assert b'    "converged": true,' in report1
    print("ACCEPTANCE 12f PASS: the 512-node radial solve report and field "
          "file are byte-identical at one and two BLAS threads")


@pytest.mark.parametrize("command", ["moser-scan", "verify-embedding"])
def test_radial_commands_independent_of_blas_threads(tmp_path, command):
    # each Moser index and sandwich profile gets a fresh radial grid of the
    # default 2048 nodes, whose norms are stiffness sums of squares
    assert DEFAULTS["grid"]["resolution"] == 2048
    (report1, field1), (report2, field2) = _solve_at_blas_threads(
        tmp_path, "[nonlinearity]\nq = 2\n", "1", command)
    assert report1 == report2
    assert field1 is None and field2 is None


def test_kernel_bench_independent_of_blas_threads(tmp_path):
    # the direct route's correlations and contractions are BLAS matmuls;
    # only the two wall-clock columns may differ
    timings = (b'"direct_seconds"', b'"fast_seconds"')
    (report1, _), (report2, _) = _solve_at_blas_threads(
        tmp_path, "[nonlinearity]\nq = 2\n", "1", "kernel-bench")
    untimed = [[line for line in report if not any(t in line for t in timings)]
               for report in (report1, report2)]
    assert len(untimed[0]) == len(report1) - 2 * len(DEFAULTS["kernel_bench"]["sizes"])
    assert untimed[0] == untimed[1]
    assert b'    "all_ok": true' in report1


POWER_EXP_RADIAL_CONFIG = """
[nonlinearity]
kind = power_exp
q = 2

[solver]
grid_kind = radial
resolution = 512
"""


def test_power_exp_radial_solve_converges(tmp_path):
    # the 16-node path phase alone stalled at residual 1e-3 and exhausted
    # its 20,000 iterations on this config; the descent on ray maxima
    # converges alone in 38, and with Newton in 16 and 3 Newton steps
    cfg_path = tmp_path / "power_exp.cfg"
    cfg_path.write_text(POWER_EXP_RADIAL_CONFIG)
    out = tmp_path / "power_exp.json"
    assert cli.main(["solve", "--config", str(cfg_path), "--seed", "1",
                     "--output", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["converged"] is True and res["residual"] <= 1e-4
    assert res["field_nonnegative"] is True
    assert 0.0 < res["level"] < 0.5
    print(f"ACCEPTANCE 12e PASS: power_exp on 512 radial nodes converges in "
          f"{res['iterations']} iterations and {res['newton_steps']} Newton "
          f"steps at level {res['level']:.7f}")
