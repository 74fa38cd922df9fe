"""CLI commands, configuration validation, report and field round trips."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from logchoquard import (cli, energy, families, grids, kernel, reports, solver,
                         spaces)
from logchoquard import nonlinearity as nl
from logchoquard.config import DEFAULTS, load_config
from logchoquard.errors import ValidationError


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


BASE = """
[nonlinearity]
kind = exp_minus_one
q = 2
"""


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE), "solve")
    assert cfg.settings["grid"]["domain_radius"] == 20.0
    assert cfg.solver.resolution == 128
    assert cfg.solver.domain_radius == 16.0


def test_missing_q_is_validation_error(tmp_path):
    path = write_config(tmp_path, "[nonlinearity]\nkind = exp_minus_one\n")
    with pytest.raises(ValidationError):
        load_config(path, "check-assumptions")


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(ValidationError):
        load_config(path, "solve")


def test_rho_beyond_half_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[moser]\nrho = 0.7\n")
    with pytest.raises(ValidationError):
        load_config(path, "moser-scan")


def test_cli_missing_q_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[nonlinearity]\nkind = exp_minus_one\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2


def test_cli_check_assumptions(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = cli.main(["check-assumptions", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"f4_ok": true' in out
    assert '"script_V"' in out


def test_cli_check_assumptions_csv(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out_path = tmp_path / "report.csv"
    code = cli.main(["check-assumptions", "--config", path,
                     "--format", "csv", "--output", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("key,value")
    assert "results.f2_ok,true" in text


def test_cli_moser_scan_bound_is_the_least_ray_max(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "scan.json"
    assert cli.main(["moser-scan", "--config", path, "--output", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    rows = results["table"]
    assert [row["n"] for row in rows] == list(DEFAULTS["moser"]["ns"])
    maxima = [row["ray_max"] for row in rows]
    assert results["mp_level_upper_bound"] == min(maxima)      # bit for bit
    assert results["witness"] == {"n": rows[maxima.index(min(maxima))]["n"]}
    # the quadratured ||w_n||^2_{1,q(w)} exceeds 1 by at most delta_n plus a
    # discretization allowance
    for row in rows:
        excess = row["norm_1qw_sq"] - 1.0
        assert 0.0 <= excess <= row["delta_n"] + 5.0 / math.log(row["n"]), row


@pytest.mark.parametrize("block", ["", "kind = power_exp\n"],
                         ids=["exp_minus_one", "power_exp"])
def test_moser_scan_past_the_overflow_scale_is_quiet(tmp_path, block):
    # B0(c F, c F) overflows past t ~ 7 to 10.  With t_max = 20 each ray
    # search still walks from t = 1 and stops where the default t_max = 4
    # does, so the tables are equal.  A search from t0 = 15 over [0, 20]
    # starts past that scale: its levels there are -inf, nothing warns, and
    # it walks down to the same maximum
    text = BASE.replace("kind = exp_minus_one\n", block)
    tables = []
    for t_max in (4.0, 20.0):
        path = write_config(tmp_path, text + f"\n[moser]\nt_max = {t_max}\n")
        out = tmp_path / "scan.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["moser-scan", "--config", path,
                             "--output", str(out)]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
            == []
        tables.append(json.loads(out.read_text())["results"]["table"])
        assert all(row["t_star"] <= t_max for row in tables[-1])
    assert tables[0] == tables[1]

    cfg = load_config(path, "moser-scan")
    row = tables[0][0]
    rho = cfg.settings["moser"]["rho"]
    cap, w = energy.moser_cap(row["n"], rho, energy.moser_grid(row["n"], rho),
                              q=cfg.spec.q, potential=cfg.potential)
    w = w.with_values(w.values / math.sqrt(1.0 + cap.delta_n))
    level_at = energy.ray_energy(w, cfg.spec, cfg.potential)
    assert level_at(15.0) == -math.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, level = energy.ray_max(level_at, 15.0, 0.0, 20.0, 1e-7)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert math.isclose(level, row["ray_max"], rel_tol=1e-10)


@pytest.mark.parametrize("t_max", ["1e-300", "1e-4", "5e-4"])
def test_moser_scan_with_every_ray_rising_at_t_max_exits_2(tmp_path, t_max):
    # every ray still rises at these t_max, so each search ends on the edge
    # and no ray has an interior maximum: no bound, and no report
    path = write_config(tmp_path, BASE + f"\n[moser]\nt_max = {t_max}\n")
    out = tmp_path / "scan.json"
    assert cli.main(["moser-scan", "--config", path,
                     "--output", str(out)]) == cli.EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("block", ["", "kind = power_exp\n"],
                         ids=["exp_minus_one", "power_exp"])
def test_moser_scan_t_star_is_the_root_of_the_ray_slope(tmp_path, monkeypatch,
                                                        block):
    # the root of <I_V'(t w), w> by bisection is the oracle.  The ray
    # search asks for 1e-7; with the quadratic part exact in t its t_star
    # lies within 2.5e-8 of the root on every default ray
    rays = []
    upper_bound = energy.mp_level_upper_bound

    def recorded(spec, potential, directions, **kwargs):
        out = upper_bound(spec, potential, directions, **kwargs)
        rays.extend((spec, potential, ray) for ray in out[2])
        return out
    monkeypatch.setattr(energy, "mp_level_upper_bound", recorded)
    path = write_config(tmp_path, BASE.replace("kind = exp_minus_one\n", block))
    out = tmp_path / "scan.json"
    assert cli.main(["moser-scan", "--config", path, "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["table"]
    assert [row["t_star"] for row in rows] == [ray.t_star for _, _, ray in rays]
    for spec, potential, ray in rays:
        w = ray.direction

        def slope(t):
            gradient = energy.energy_gradient(w.with_values(t * w.values),
                                              spec, potential)
            return energy.pair_gradient(gradient.field, w)
        lo, hi = ray.t_star - 1e-3, ray.t_star + 1e-3
        assert slope(lo) > 0.0 > slope(hi)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
        assert abs(ray.t_star - 0.5 * (lo + hi)) <= 1e-7, ray.t_star


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_energy_evaluations(monkeypatch):
    """Every evaluation of I_V: each call of a ``ray_energy`` closure, which
    ``total_energy`` makes at t = 1."""
    calls = []
    ray_energy = energy.ray_energy

    def counted_ray(*args):
        level_at = ray_energy(*args)

        def counted(t):
            calls.append("ray_energy")
            return level_at(t)
        return counted

    monkeypatch.setattr(energy, "ray_energy", counted_ray)
    return calls


@pytest.mark.parametrize("command, counter, expected", [
    ("moser-scan", lambda patch: count_calls(patch, energy, "ray_analysis"),
     len(DEFAULTS["moser"]["ns"])),
    # per ray, the one search from t = 1
    ("moser-scan", count_energy_evaluations, 69),
    ("check-assumptions",
     lambda patch: count_calls(patch, nl, "compute_script_V"), 1),
    # the sandwich grid and one anchored grid per Moser cap
    ("verify-embedding", lambda patch: count_calls(patch, grids, "build_grid"),
     1 + len(DEFAULTS["embedding"]["moser_ns"])),
    # one gradient per descent iteration (11 on the default solve) and one
    # per Newton step (2): Newton starts from the descent's last gradient,
    # and none is computed again for the converged state
    ("solve", lambda patch: count_calls(patch, energy, "energy_gradient"), 13),
    # the geometry check, the descent's ray searches and the Newton level;
    # a zero recentering shift evaluates nothing
    ("solve", count_energy_evaluations, 84),
    # one forward transform per I_V and per B0 convolution, none in the PS
    # diagnostics
    ("solve", lambda patch: count_calls(patch, kernel, "_spectrum"), 117),
], ids=["moser-scan", "moser-scan-energies", "check-assumptions",
        "verify-embedding", "solve", "solve-energies", "solve-spectra"])
def test_commands_compute_each_quantity_once(tmp_path, monkeypatch, command,
                                             counter, expected):
    calls = counter(monkeypatch)
    path = write_config(tmp_path, BASE)
    assert cli.main([command, "--config", path,
                     "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == expected


def test_solve_ps_diagnostics_read_the_trace_pairings(tmp_path, monkeypatch):
    # the B0 pairings of every trace state come with its gradient: the PS
    # diagnostics transform nothing and form no B0 pairing
    calls = [count_calls(monkeypatch, module, name)
             for module, name in ((kernel, "_spectrum"), (kernel, "b0_form"),
                                  (energy, "compose_f"))]
    inside = []
    ps_diagnostics = solver.ps_diagnostics

    def counted(*args, **kwargs):
        before = [len(c) for c in calls]
        out = ps_diagnostics(*args, **kwargs)
        inside.append([len(c) - b for c, b in zip(calls, before)])
        return out
    monkeypatch.setattr(solver, "ps_diagnostics", counted)
    path = write_config(tmp_path, BASE)
    assert cli.main(["solve", "--config", path,
                     "--output", str(tmp_path / "out.json")]) == 0
    assert inside == [[0, 0, 0]]


@pytest.mark.parametrize("poisoned", ["first", "every"])
def test_a_non_finite_newton_step_discards_the_run(tmp_path, monkeypatch,
                                                   poisoned):
    # a nan in a Newton step ends that Newton run unaccepted; the descent
    # goes on and the solve still converges, instead of exiting 2
    minres = solver._minres
    steps = []

    def nan_step(*args):
        x, products, estimate = minres(*args)
        steps.append(x)
        if poisoned == "every" or len(steps) == 1:
            x = x.copy()
            x.flat[x.size // 2] = np.nan
        return x, products, estimate
    monkeypatch.setattr(solver, "_minres", nan_step)
    out = tmp_path / "out.json"
    assert cli.main(["solve", "--config", write_config(tmp_path, BASE),
                     "--output", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["status"] == "converged" and len(steps) > 1
    assert results["level"] == pytest.approx(0.0777016879, abs=1e-8)
    assert (results["newton_steps"] == 0) == (poisoned == "every")


@pytest.mark.parametrize("text", [
    BASE + "\n[potential]\namplitude = 0.5\n",
    BASE.replace("q = 2\n", "q = 2\nc_amplitude = 0.5\n"),
], ids=["potential", "c-profile"])
def test_moser_scan_rejects_periodic_coefficients_before_any_work(
        tmp_path, monkeypatch, capsys, text):
    # the caps live on radial grids; the polar max of the coefficient over
    # each cap's disc would be work thrown away
    calls = count_calls(monkeypatch, spaces.PeriodicCoefficient, "max_within")
    code = cli.main(["moser-scan", "--config", write_config(tmp_path, text),
                     "--output", str(tmp_path / "out.json")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == \
        "error: non-constant periodic coefficients require a cartesian grid\n"
    assert calls == []


def test_cli_kernel_bench(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "\n[kernel_bench]\nsizes = 16\npairs = 3\n")
    code = cli.main(["kernel-bench", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"all_ok": true' in out


@pytest.mark.parametrize("value, radius", [(0.0, 1e-75), (math.nan, 4.0)])
def test_kernel_bench_fails_a_wrong_fast_route(tmp_path, monkeypatch, value,
                                               radius):
    # at R = 1e-75 the forms are of order 1e-296, so an error taken against
    # 1 + |ref| read about 1e-311 whatever the fast route returned; a nan
    # error must not be passed over as smaller than the others
    monkeypatch.setattr(kernel, "bilinear_fast",
                        lambda u, v: kernel.KernelForm(b1=value, b2=value, b0=value))
    path = write_config(tmp_path, BASE + "\n[kernel_bench]\nsizes = 16\n"
                        f"pairs = 2\nbench_radius = {radius}\n")
    out = tmp_path / "out.json"
    assert cli.main(["kernel-bench", "--config", path,
                     "--output", str(out)]) == cli.EXIT_ADMISSIBILITY
    row, = json.loads(out.read_text())["results"]["table"]
    assert not row["ok"]
    assert row["max_relative_error"] is None or row["max_relative_error"] >= 1.0


def test_cli_check_assumptions_power_exp(tmp_path, capsys):
    path = write_config(tmp_path,
                        "[nonlinearity]\nkind = power_exp\nq = 2\np = 2\n")
    code = cli.main(["check-assumptions", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"f4_ok": true' in out


def test_cli_unknown_nonlinearity_key_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "c_amplitud = 0.5\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2


@pytest.mark.parametrize("setting", ["residual_tolerance = 0",
                                     "grid_kind = hexagonal",
                                     "resolution = 4",
                                     "domain_radius = -1",
                                     "max_iterations = 0",
                                     "domain_radius = nan",
                                     # unknown keys: keys that are no longer
                                     # settings
                                     "path_nodes = 16",
                                     "descent_step = 0",
                                     "rho_sphere = -0.5",
                                     "witness_radius = 0"])
def test_cli_invalid_solver_block_rejected_by_every_command(tmp_path, capsys,
                                                            setting):
    path = write_config(tmp_path, BASE + "\n[solver]\n" + setting + "\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2
    unknown = setting.split()[0] not in DEFAULTS["solver"]
    assert ("unknown key" in capsys.readouterr().err) == unknown


@pytest.mark.parametrize("section, setting", [
    ("grid", "domain_radius = nan"),
    ("potential", "floor = nan"),
    ("potential", "amplitude = nan"),
    ("nonlinearity", "p = nan"),
    ("nonlinearity", "q = nan"),
    ("nonlinearity", "s0 = nan"),
    ("nonlinearity", "c_floor = nan"),
    ("nonlinearity", "c_floor = 0"),
    ("nonlinearity", "c_amplitude = nan"),
    ("nonlinearity", "q = inf"),
    ("potential", "floor = inf"),
    ("grid", "domain_radius = inf"),
    ("moser", "t_max = nan"),
    ("embedding", "alpha = nan"),
    ("kernel_bench", "bench_radius = nan"),
    ("moser", "ns = 0"),
    ("embedding", "moser_ns = 1"),
    ("embedding", "bound_points = 0"),
    ("kernel_bench", "pairs = 0"),
    ("kernel_bench", "sizes = 4"),
    ("kernel_bench", "bench_radius = -1"),
    ("moser", "t_max = 0"),
    ("embedding", "alpha = 0"),
    ("embedding", "alpha = -1"),
    # unknown keys: a misspelt one, then keys that are no longer settings
    ("output", "pth = x"),
    ("moser", "ray_samples = 63"),
    ("grid", "kind = cartesian"),
    ("grid", "kind = radial"),
    ("nonlinearity", "beta = 1"),
])
def test_cli_non_finite_and_nonpositive_settings_rejected(tmp_path, section, setting):
    if setting.startswith("q ="):
        text = BASE.replace("q = 2", setting)
    elif section == "nonlinearity":   # BASE ends inside [nonlinearity]
        text = BASE + setting + "\n"
    else:
        text = BASE + f"\n[{section}]\n{setting}\n"
    path = write_config(tmp_path, text)
    for command in ("check-assumptions", "verify-embedding"):
        assert cli.main([command, "--config", path,
                         "--output", str(tmp_path / "out.json")]) == 2
        assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("setting", ["s_max = nan", "points = 99",
                                     "s_max = 1e154", "s_max = 1e300"])
def test_removed_scan_section_is_an_unknown_section(tmp_path, capsys, setting):
    # check-assumptions samples nothing, so [scan] is no longer a section
    path = write_config(tmp_path, BASE + f"\n[scan]\n{setting}\n")
    for command in ("check-assumptions", "verify-embedding"):
        assert cli.main([command, "--config", path,
                         "--output", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err \
            == "validation error: unknown config section [scan]\n"
        assert not os.path.exists(tmp_path / "out.json")


def test_settable_values_are_counted():
    # a new option has to raise this count on purpose
    assert sum(len(rows) for rows in DEFAULTS.values()) == 26


@pytest.mark.parametrize("text", [
    b"[nonlinearity]\nq = 2\nq = 2\n",
    b"[nonlinearity]\nq = 2\n[nonlinearity]\nq = 3\n",
    b"q = 2\n[nonlinearity]\nq = 2\n",
    b"[nonlinearity]\nq = 2\nkind\n",
    b"[nonlinearity]\nq = 2%\n",
    b"[nonlinearity]\nq = 2\xff\n",
    b"[DEFAULT]\nq = 2\n[nonlinearity]\nq = 2\n",
    b"[DEFAULT]\n[nonlinearity]\nq = 2\n",
], ids=["duplicate-key", "duplicate-section", "key-before-header", "no-equals",
        "percent", "non-utf8-byte", "default-section", "empty-default-section"])
def test_cli_malformed_ini_exits_2(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    out = tmp_path / "out.json"
    assert cli.main(["check-assumptions", "--config", str(path),
                     "--output", str(out)]) == 2
    assert not out.exists()


def test_output_path_from_the_file_takes_percent_literally(tmp_path):
    out = tmp_path / "report%1.json"
    path = write_config(tmp_path, BASE + f"\n[output]\npath = {out}\n")
    assert cli.main(["check-assumptions", "--config", path]) == 0
    assert '"f4_ok": true' in out.read_text()


@pytest.mark.parametrize("block", [
    "kind = piecewise\nq = 2\ns0 = 10\n",        # the splice constant underflows
    "q = 1e300\n",                                # [q]! overflows
    "kind = piecewise\nq = 400\np = 0.5\n",       # [q]!/2^([q]-1) overflows
    "kind = piecewise\nq = 2\ns0 = 1e300\n",      # s0^2 overflows
    "kind = piecewise\nq = 1e4\np = 0.5\ns0 = 2\n",  # the splice constant overflows
], ids=["piecewise-s0-10", "q-1e300", "piecewise-q-400", "piecewise-s0-1e300",
        "piecewise-q-1e4"])
def test_cli_check_assumptions_extreme_nonlinearity(tmp_path, block):
    path = write_config(tmp_path, "[nonlinearity]\n" + block)
    out = tmp_path / "out.json"
    assert cli.main(["check-assumptions", "--config", path,
                     "--output", str(out)]) in (0, 3)
    assert out.exists()


# (kind, p, q) -> (f1, f2, f3, f4, AR, exit code) of check-assumptions on
# the closed forms; every piecewise spec below passes at every s0
PASS = (True, True, True, True, True, 0)
VERDICTS = {
    # f / s^(q-1) = 2a s^(2-q) e^{a s^2} has a finite limit at q = 2 only
    ("exp_minus_one", 1.0, 2.0): PASS,
    ("exp_minus_one", 1.0, 3.0): (False, True, True, True, True, 3),
    # p < q: f / s^(q-1) ~ p s^(p-q) diverges; p <= 1: inf F f'/f^2 is
    # (p - 1)/p <= 0 at s -> 0, so no delta > 0 serves (f2) or AR
    ("power_exp", 0.5, 2.0): (False, False, True, True, False, 3),
    ("power_exp", 0.5, 3.0): (False, False, True, True, False, 3),
    ("power_exp", 1.0, 2.0): (False, False, True, True, False, 3),
    ("power_exp", 1.0, 3.0): (False, False, True, True, False, 3),
    ("power_exp", 2.0, 2.0): PASS,
    ("power_exp", 2.0, 3.0): (False, True, True, True, True, 3),
    # p > q: f / s^(q-1) -> 0, a finite limit
    ("power_exp", 3.0, 2.0): PASS,
    ("power_exp", 3.0, 3.0): PASS,
}
VERDICT_SPECS = [(kind, p, q, 1.0) for kind, p, q in VERDICTS] + [
    ("piecewise", p, q, s0) for p in (0.5, 1.0, 2.0, 3.0) for q in (2.0, 3.0)
    for s0 in (0.5, 1.0, 2.0, 20.0)]


@pytest.mark.parametrize("kind, p, q, s0", VERDICT_SPECS,
                         ids=[f"{k}-p{p:g}-q{q:g}-s0{s0:g}"
                              for k, p, q, s0 in VERDICT_SPECS])
def test_check_assumptions_verdict_table(tmp_path, kind, p, q, s0):
    # piecewise specs read (f4) from a window below s0 and (f3) below s0 = 20
    # when the checks sampled (0, 10]; the tail decides them now
    path = write_config(tmp_path, f"[nonlinearity]\nkind = {kind}\n"
                        f"p = {p}\nq = {q}\ns0 = {s0}\n")
    out = tmp_path / "out.json"
    code = cli.main(["check-assumptions", "--config", path, "--output", str(out)])
    res = json.loads(out.read_text())["results"]
    flags = tuple(res[key] for key in ("f1_ok", "f2_ok", "f3_ok", "f4_ok",
                                       "ambrosetti_rabinowitz_improved"))
    assert flags + (code,) == VERDICTS.get((kind, p, q), PASS)


@pytest.mark.parametrize("block, code", [
    # q = 2 is the one finite limit of f / s^(q-1) = 2a s^(2-q) e^{a s^2}
    ("q = 2.000000000000001", 3),
    # p = q near the float limit: 3p, 8kp and 2p + 4 overflow, and so
    # does the threshold script_V, which no liminf exceeds
    ("kind = power_exp\nq = 1.7e308", 3),
    # inf F f'/f^2 = (p - 1)/p and sup 1 + 1/(8p) overflow
    ("kind = power_exp\nq = 2\np = 1e-310", 3),
    # s0 * s0 overflows, and s0**2 would raise: the splice is past every float
    ("kind = piecewise\nq = 2\ns0 = 1e300", 0),
    # 2a s0^2 underflows to 0
    ("kind = piecewise\nq = 2\ns0 = 1e-300", 0),
    # p + 2a s0^2 overflows
    ("kind = piecewise\nq = 2\np = 1.7e308\ns0 = 1e153", 0),
], ids=["exp_minus_one-q", "power_exp-p-1.7e308", "power_exp-p-1e-310",
        "piecewise-s0-1e300", "piecewise-s0-1e-300", "piecewise-p-1.7e308"])
def test_check_assumptions_at_extreme_parameters_is_quiet(tmp_path, block,
                                                          code):
    path = write_config(tmp_path, f"[nonlinearity]\n{block}\n")
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check-assumptions", "--config", path,
                         "--output", str(out)]) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    results = json.loads(out.read_text())["results"]
    assert results["f3_ok"]
    assert results["f4_ok"] == (results["script_V"] is not None)


# a non-default value in each section a command reads, on small problems
SMALL_SETTINGS = {
    "check-assumptions": {"nonlinearity": {"q": 2, "kind": "piecewise",
                                           "s0": 0.75}},
    "verify-embedding": {"grid": {"resolution": 256},
                         "embedding": {"alpha": 3.0, "bound_points": 10,
                                       "moser_ns": [4, 8], "rho": 0.4}},
    "moser-scan": {"grid": {"resolution": 256},
                   "moser": {"ns": [8, 16], "rho": 0.4, "t_max": 3.0}},
    "solve": {"solver": {"domain_radius": 6.0, "resolution": 48,
                         "max_iterations": 2000, "residual_tolerance": 2e-4}},
    "kernel-bench": {"kernel_bench": {"sizes": [8, 16], "pairs": 2,
                                      "bench_radius": 3.0}},
}


def as_ini(config):
    """A report's ``config`` (its sections; ``seed`` is a flag) as a file."""
    lines = []
    for section, rows in config.items():
        if isinstance(rows, dict):
            lines.append(f"[{section}]")
            lines += [f"{key} = {','.join(map(str, value))}"
                      if isinstance(value, list) else f"{key} = {value}"
                      for key, value in rows.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", list(SMALL_SETTINGS))
def test_a_reports_config_reproduces_the_report(tmp_path, command):
    # the first run names its report path twice, in [output] and by --output;
    # neither may reach the report
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    path = tmp_path / "first.cfg"
    path.write_text(as_ini({"nonlinearity": {"q": 2}, **SMALL_SETTINGS[command],
                            "output": {"path": first}}))
    code = cli.main([command, "--config", str(path), "--seed", "7",
                     "--output", str(first)])
    report = json.loads(first.read_text())
    assert set(report["config"]) == set(DEFAULTS) - {"output"} | {"seed"}
    assert report["config"]["seed"] == 7
    for section, rows in SMALL_SETTINGS[command].items():
        for key, value in rows.items():
            assert report["config"][section][key] == value, (section, key)

    path = tmp_path / "second.cfg"
    path.write_text(as_ini(report["config"]))
    assert cli.main([command, "--config", str(path), "--seed", "7",
                     "--output", str(second)]) == code

    def stable(out):
        return [line for line in out.read_text().splitlines() if not any(
            f'"{key}"' in line for key in ("field_file", "direct_seconds",
                                           "fast_seconds"))]
    assert stable(first) == stable(second)
    assert str(tmp_path) not in "\n".join(stable(first) + stable(second))
    if command == "solve":
        assert (tmp_path / "first.json.field").read_bytes() \
            == (tmp_path / "second.json.field").read_bytes()


def test_readme_example_configuration_loads_for_every_command(tmp_path,
                                                              monkeypatch):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        example = handle.read().split("```ini\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)          # its report path is relative
    path = write_config(tmp_path, example)
    for command in cli.COMMANDS:
        assert load_config(path, command).output_path == "run.json"


@pytest.mark.parametrize("command", ["check-assumptions", "solve"])
def test_cli_unwritable_output_exits_2(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASE + "\n[solver]\nmax_iterations = 1\n")
    missing = tmp_path / "missing" / "out.json"
    assert cli.main([command, "--config", path, "--output", str(missing)]) == 2
    assert not (tmp_path / "missing").exists()


def test_cli_report_path_that_is_a_directory_exits_2(tmp_path):
    # the directory exists, so the write itself fails, after the computation
    path = write_config(tmp_path, BASE)
    (tmp_path / "taken.json").mkdir()
    assert cli.main(["check-assumptions", "--config", path,
                     "--output", str(tmp_path / "taken.json")]) == 2


KINDS = ["radial", "cartesian", "exp_minus_one", "power_exp", "piecewise", "custom"]
FUZZ_VALUES = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(KINDS + ["", "  ", "nan", "-nan", "inf", "-inf", "1e300", "-1e300",
                             "1e-300", "yes", "8, 16,32", "1,,2", ",", "2%", "%(q)s",
                             "%%", "x.json"]),
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=4).map(
        lambda ints: ",".join(map(str, ints))),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
UNKNOWN_SECTIONS = ["DEFAULT", "mystery", "Grid"]
DEFECTS = {"duplicate-key": "q = 2", "duplicate-section": "[nonlinearity]",
           "key-before-header": "q = 2", "no-equals": "kind",
           "continuation": "  8", "byte": "q = 2\udcff"}


@st.composite
def ini_files(draw):
    """INI bytes: keys of the config table with values of their own type
    around the default.  Half the files are otherwise clean; in the rest,
    each value may be wild, and a missing q, an unknown section, an unknown
    key and structural defects each occur in about half of them."""
    clean = draw(st.booleans())

    def rarely(odds=2):
        return not clean and draw(st.integers(0, odds - 1)) == 0

    def value(default):
        if rarely(4):
            return draw(FUZZ_VALUES)
        if isinstance(default, tuple):
            return ",".join(map(str, draw(st.lists(st.integers(2, 64), min_size=1,
                                                   max_size=4))))
        if isinstance(default, str):
            return draw(st.sampled_from([default] + KINDS))
        if isinstance(default, int):
            return str(draw(st.integers(0, min(2 * default, 10**4))))
        low, high = (1.0, 8.0) if default is None else (default / 2, 2 * default or 1.0)
        return repr(draw(st.floats(low, high)))

    others = [section for section in DEFAULTS if section != "nonlinearity"]
    sections = [] if rarely() else ["nonlinearity"]
    sections += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    if rarely():
        sections.insert(draw(st.integers(0, len(sections))),
                        draw(st.sampled_from(UNKNOWN_SECTIONS)))
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        rows = dict(DEFAULTS.get(section, {}))
        if section == "nonlinearity" and not rarely():
            lines.append(f"q = {value(rows.pop('q'))}")
        keys = draw(st.lists(st.sampled_from(sorted(rows) or ["x"]), max_size=4,
                             unique=True))
        if rarely():
            keys.append(draw(st.sampled_from(["typo", "Q"])))
        lines += [f"{key} = {value(rows.get(key))}" for key in keys]
    if rarely():
        for defect in draw(st.lists(st.sampled_from(sorted(DEFECTS)), min_size=1,
                                    max_size=2)):
            at = 0 if defect == "key-before-header" else draw(
                st.integers(0, len(lines)))
            lines[at:at] = [DEFECTS[defect]] * (2 if defect == "duplicate-key" else 1)
    return "\n".join(lines).encode("utf-8", "surrogateescape") + b"\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=ini_files())
# a large q overflows the threshold integrand to +inf, a power_exp q past
# 1e154 would overflow P_1^2 in the (f2) ratio, and one near the float limit
# overflows p log s and lgamma([q] + 1): none may raise
@example(data=b"[nonlinearity]\nq = 10.0\n")
@example(data=b"[nonlinearity]\nkind = power_exp\nq = 1.3407807929942597e+154\n")
@example(data=b"[nonlinearity]\nkind = power_exp\nq = 1e308\n")
def test_fuzzed_ini_files_exit_with_a_documented_code(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    code = cli.main(["check-assumptions", "--config", str(path),
                     "--output", str(tmp_path / "fuzz.json")])
    assert code in (0, 2, 3, 4)


def test_verify_embedding_reports_the_configured_alpha(tmp_path):
    text = (BASE + "\n[grid]\nresolution = 256\n"
            "\n[embedding]\nbound_points = 10\nmoser_ns = 4,8\n")
    cfg = load_config(write_config(tmp_path, text + "alpha = 3.5\n"),
                      "verify-embedding")
    results, _, _ = cli.cmd_verify_embedding(cfg)
    assert results["alpha"] == 3.5
    assert "orlicz_q_variant" not in results      # q = 2
    # an unset alpha means 2 pi; any other value is used as given, never
    # replaced: a zero is rejected, not read as unset
    cfg = load_config(write_config(tmp_path, text), "verify-embedding")
    assert cfg.settings["embedding"]["alpha"] == 2 * math.pi
    with pytest.raises(ValidationError):
        load_config(write_config(tmp_path, text + "alpha = 0\n"),
                    "verify-embedding")


def test_verify_embedding_orlicz_variant_at_q_3(tmp_path):
    path = write_config(tmp_path, BASE.replace("q = 2", "q = 3"))
    out = tmp_path / "out.json"
    assert cli.main(["verify-embedding", "--config", path,
                     "--output", str(out)]) == 0
    variant = json.loads(out.read_text())["results"]["orlicz_q_variant"]
    alpha = 1.0 / math.sqrt(3.0)
    assert variant["alpha"] == alpha and variant["q"] == 3.0
    assert [row["n"] for row in variant["values"]] == [4, 8, 16, 32, 64]
    values = [row["value"] for row in variant["values"]]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    # the n = 16 value, evaluated directly on the cap scaled to the unit
    # q-growth sphere
    _, cap = energy.moser_cap(16, 0.5, energy.moser_grid(16, 0.5))
    nrm = spaces.norm_w0_sq(cap, 3.0)
    scaled = cap.with_values(cap.values / math.sqrt(nrm))
    assert values[2] == spaces.tm_functional(scaled, alpha, q_cap=3.0).value


def test_cli_zero_resolution_grid_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[grid]\nresolution = 0\n")
    code = cli.main(["verify-embedding", "--config", path])
    assert code == 2


def test_cli_solve_geometry_failure_exit_code(tmp_path, capsys, monkeypatch):
    # inert nonlinearities are not constructible from a config file, so
    # force the failure path to check the exit-code mapping
    monkeypatch.chdir(tmp_path)
    from logchoquard import solver
    from logchoquard.errors import GeometryFailureError

    def failing_solve(config):
        raise GeometryFailureError("no negative-energy point")

    monkeypatch.setattr(solver, "solve_mountain_pass", failing_solve)
    monkeypatch.setattr(cli.solver, "solve_mountain_pass", failing_solve)
    path = write_config(tmp_path, BASE)
    code = cli.main(["solve", "--config", path])
    assert code == 3


SMALL_SOLVE = """
[solver]
domain_radius = 6.0
resolution = 48
max_iterations = 2000
residual_tolerance = 2e-4
"""


def test_cli_solve_small_and_determinism(tmp_path, capsys, monkeypatch):
    # a rerun is byte-identical, and --seed, which only kernel-bench draws
    # from, changes nothing of a solve but the report's "seed" line
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASE + SMALL_SOLVE)
    out = tmp_path / "run.json"
    runs = []
    for seed in ("0", "0", "11"):
        assert cli.main(["solve", "--config", path, "--seed", seed,
                         "--output", str(out)]) == 0
        runs.append((out.read_bytes(), (tmp_path / "run.json.field").read_bytes()))
    assert runs[0] == runs[1]
    (report0, field0), (report11, field11) = runs[1:]
    assert field11 == field0
    lines0, lines11 = report0.splitlines(), report11.splitlines()
    assert len(lines0) == len(lines11)
    assert [(a.strip(), b.strip()) for a, b in zip(lines0, lines11) if a != b] \
        == [(b'"seed": 0', b'"seed": 11')]


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_report_json_roundtrip_floats():
    payload = {"a": 1.0 / 3.0, "b": [np.pi, 2**-52], "c": {"d": 1e-300},
               "integral": 2.0, "flag": True, "none": None,
               "nan": float("nan"), "empty_dict": {}, "empty_list": [],
               "text": 'say "hi" \\ then\nstop'}
    text = reports.render_json(reports.build_report("x", {}, payload, {}))
    parsed = json.loads(text, parse_constant=reject_constant)
    assert parsed["results"]["a"] == 1.0 / 3.0
    assert parsed["results"]["b"][0] == np.pi
    assert parsed["results"]["c"]["d"] == 1e-300
    res = parsed["results"]
    assert res["integral"] == 2.0 and isinstance(res["integral"], float)
    assert res["flag"] is True and res["none"] is None
    assert res["nan"] is None
    assert res["empty_dict"] == {} and res["empty_list"] == []
    assert res["text"] == payload["text"]


def test_report_json_writes_non_finite_floats_as_null():
    finite = {"a": [1.0 / 3.0, np.float64(2.5), np.arange(3.0)], "b": {"c": 7}}
    assert reports.render_json(finite) == json.dumps(
        reports._to_jsonable(finite), indent=2) + "\n"
    payload = {"inf": float("inf"), "ninf": np.float64(-np.inf),
               "array": np.array([1.0, np.nan]), "pair": (np.inf, 2.0)}
    parsed = json.loads(reports.render_json(payload),
                        parse_constant=reject_constant)
    assert parsed == {"inf": None, "ninf": None, "array": [1.0, None],
                      "pair": [None, 2.0]}
    # CSV keeps its own spelling of non-finite values
    assert "inf,Infinity" in reports.render_csv(payload)


def test_overflowing_threshold_gives_a_strict_report_and_a_quiet_search(
        tmp_path):
    path = write_config(tmp_path, "[nonlinearity]\nq = 1e300\n")
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check-assumptions", "--config", path,
                         "--output", str(out)]) == 3
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    assert report["results"]["script_V"] is None
    # the search for the threshold's minimum meets inf everywhere and
    # warns on none of it
    noisy = [w for w in caught if issubclass(w.category, RuntimeWarning)
             and ("nonlinearity.py" in w.filename or "scipy" in w.filename)]
    assert noisy == []


def test_solve_whose_quadratic_solve_misses_its_tolerance_exits_2(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "K_SOLVE_MAX_ITERATIONS", 1)
    path = write_config(tmp_path, BASE + SMALL_SOLVE
                        + "\n[potential]\namplitude = 0.5\n")
    assert cli.main(["solve", "--config", path,
                     "--output", str(tmp_path / "run.json")]) == 2
    assert "in 1 MINRES steps" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


RESOLUTION = "node(s) inside radius 0.25"
ZERO_NORM = "zero norm on the radial grid"
SCALE = "4th power is not a normal float"
NO_FLOOR = "no positive energy floor on the rho = 0.01 sphere"
TINY_RADIAL = [(64, "1e-7"), (64, "1e-8"), (64, "1e-9"), (64, "1e-10"),
               (64, "1e-15"), (512, "1e-8")]


@pytest.mark.parametrize("command, block, message", [
    # every probe of the geometry check vanishes at the nodes
    ("solve", "[solver]\ndomain_radius = 1e6\nresolution = 8", RESOLUTION),
    ("solve", "[solver]\ngrid_kind = radial\ndomain_radius = 1e6\n"
     "resolution = 8", RESOLUTION),
    ("solve", "[solver]\ngrid_kind = radial\ndomain_radius = 1e6\n"
     "resolution = 4096", RESOLUTION),
    # the first node lies past every sandwich profile's support
    ("verify-embedding", "[grid]\ndomain_radius = 1e5", ZERO_NORM),
    # R^4, or h^4 of the cell-pair averages, overflows or underflows
    ("solve", "[solver]\ngrid_kind = radial\ndomain_radius = 1e300", SCALE),
    ("moser-scan", "[grid]\ndomain_radius = 1e300", SCALE),
    ("verify-embedding", "[grid]\ndomain_radius = 1e300", SCALE),
    ("solve", "[solver]\ndomain_radius = 1e-100", SCALE),
    ("kernel-bench", "[kernel_bench]\nbench_radius = 1e-300", SCALE),
    ("kernel-bench", "[kernel_bench]\nbench_radius = 1e300", SCALE),
], ids=["solve-cartesian-1e6", "solve-radial-1e6-8", "solve-radial-1e6-4096",
        "verify-embedding-1e5", "solve-radial-1e300", "moser-scan-1e300",
        "verify-embedding-1e300", "solve-1e-100", "kernel-bench-1e-300",
        "kernel-bench-1e300"])
def test_grids_out_of_scale_or_unresolved_exit_2(tmp_path, capsys, command,
                                                 block, message):
    path = write_config(tmp_path, BASE + "\n" + block + "\n")
    assert cli.main([command, "--config", path,
                     "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("n, radius", TINY_RADIAL,
                         ids=[f"{radius}-{n}" for n, radius in TINY_RADIAL])
def test_tiny_radial_grids_have_no_energy_floor_exit_3(tmp_path, capsys, n,
                                                       radius):
    # every geometry probe has a positive squared norm, since the Dirichlet
    # form is a sum of squares, but on a disc this small no probe has a
    # positive energy on the rho sphere
    grid = grids.build_grid("radial", float(radius), n)
    for probe in solver._geometry_probes(grid):
        assert spaces.norm_1qw_sq(probe, 2.0, spaces.PeriodicCoefficient(1.0)) > 0
    path = write_config(tmp_path, BASE + "\n[solver]\ngrid_kind = radial\n"
                        f"domain_radius = {radius}\nresolution = {n}\n")
    assert cli.main(["solve", "--config", path,
                     "--output", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert err == f"geometry/admissibility failure: {NO_FLOOR}\n"
    assert not (tmp_path / "out.json").exists()


# scipy itself, every subpackage the package imports, and the four it must
# never import (its FFTs are numpy's; its norm sandwich interpolates
# nothing; its 1D searches and its nonlinearities need neither a scipy
# optimizer nor quadrature)
PROBED_SCIPY = ("scipy", "scipy.fft", "scipy.sparse", "scipy.sparse.linalg",
                "scipy.integrate", "scipy.interpolate", "scipy.optimize")
IMPORT_PROBE = """
import json, sys
from logchoquard import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))
""".format(modules=PROBED_SCIPY)


@pytest.mark.parametrize("command, block, loaded", [
    (None, "", []),
    ("check-assumptions", "", []),
    ("kernel-bench", "\n[kernel_bench]\nsizes = 16\n", []),
    ("solve", SMALL_SOLVE, []),
    ("solve", "\n[solver]\ngrid_kind = radial\nresolution = 256\n",
     ["scipy", "scipy.sparse", "scipy.sparse.linalg"]),
    ("verify-embedding", "", []),
    ("moser-scan", "", []),
], ids=["import", "check-assumptions", "kernel-bench", "solve", "radial-solve",
        "verify-embedding", "moser-scan"])
def test_commands_import_only_the_scipy_they_use(tmp_path, command, block,
                                                 loaded):
    args = []
    if command is not None:
        args = [command, "--config", write_config(tmp_path, BASE + block),
                "--output", str(tmp_path / "out.json")]
        if command == "solve":
            args += ["--seed", "11"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                         env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True)
    code, present = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert sorted(present) == sorted(loaded)


def _package_imports():
    """(file name, line, imported module, path) for every import statement
    in the package source, with the path the nodes from the module down to
    the statement, so that a branch no command takes counts too."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read())

        def visit(path):
            node = path[-1]
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield name, node.lineno, alias.name, path
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield name, node.lineno, node.module, path
                for alias in node.names:
                    yield name, node.lineno, f"{node.module}.{alias.name}", path
            for child in ast.iter_child_nodes(node):
                yield from visit(path + (child,))
        yield from visit((tree,))


def test_no_module_imports_scipy_fft_integrate_interpolate_or_optimize():
    for name, line, module, _ in _package_imports():
        assert module.split(".")[:2] not in (
            ["scipy", "fft"], ["scipy", "integrate"],
            ["scipy", "interpolate"], ["scipy", "optimize"]), \
            f"{name}:{line} imports {module}"


def _in_function(path, function):
    return any(isinstance(node, ast.FunctionDef) and node.name == function
               for node in path)


def _in_radial_branch(path):
    radial = ast.dump(ast.parse('grid.kind == "radial"', mode="eval").body)
    return any(isinstance(node, ast.If) and ast.dump(node.test) == radial
               and inner in node.body
               for node, inner in zip(path, path[1:]))


def test_scipy_is_imported_only_on_the_radial_path():
    # a cartesian solve runs on numpy alone: scipy.sparse assembles and
    # factors the radial K, and nothing else
    seen = set()
    for name, line, module, path in _package_imports():
        if module.split(".")[0] != "scipy":
            continue
        assert module in ("scipy.sparse", "scipy.sparse.linalg"), \
            f"{name}:{line} imports {module}"
        assert (name == "solver.py"
                and _in_function(path, "_quadratic_preconditioner")
                and _in_radial_branch(path)), \
            f"{name}:{line} imports {module} off the radial path"
        seen.add(module)
    assert seen == {"scipy.sparse", "scipy.sparse.linalg"}


def test_field_roundtrip(tmp_path):
    g = grids.build_grid("cartesian", 4.0, 16)
    u = families.gaussian(g, 1.0)
    path = str(tmp_path / "field.dat")
    reports.save_field(u, path)
    back = reports.load_field(path)
    assert back.grid.kind == "cartesian"
    assert back.grid.domain_radius == 4.0
    assert np.array_equal(back.values, u.values)


def test_field_roundtrip_radial(tmp_path):
    g = grids.build_grid("radial", 20.0, 64)
    u = families.gaussian(g, 2.0)
    path = str(tmp_path / "field.dat")
    reports.save_field(u, path)
    back = reports.load_field(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.grid.nodes, g.nodes)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 9), ("radial", 81),
                                              ("cartesian", 16)])
def test_save_field_writes_what_the_per_value_writer_writes(tmp_path, kind,
                                                            resolution):
    # the reference formats every value by itself, 8 to a row; 81 nodes
    # leave a partial last row
    g = grids.build_grid(kind, 4.0, resolution)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
               0.1, -1 / 3, 2.0**53 + 2]
    values = np.random.default_rng(5).standard_normal(g.num_nodes)
    values[:len(special)] = special
    u = grids.GridField(g, values.reshape(g.shape))
    path = tmp_path / "field.dat"
    reports.save_field(u, str(path))
    flat = u.values.ravel()
    reference = f"{kind} 4 {resolution}\n" + "".join(
        " ".join(reports.format_float(v) for v in flat[i:i + 8]) + "\n"
        for i in range(0, len(flat), 8))
    assert path.read_bytes() == reference.encode()


@pytest.mark.parametrize("text", [
    "cartesian four 8\n" + "0 " * 64,
    "cartesian 4.0 8\n" + "0 " * 63 + "x",
    "hexagonal 4.0 8\n" + "0 " * 64,
    "cartesian 4.0 8\n",
    "cartesian 4.0 8\n" + "nan " * 64,
], ids=["bad-radius", "bad-value-token", "unknown-kind", "no-values", "all-nan"])
def test_load_field_malformed_raises_validation_error(tmp_path, text):
    path = tmp_path / "bad.field"
    path.write_text(text)
    with pytest.raises(ValidationError):
        reports.load_field(str(path))


def test_load_field_counts_values_before_building_the_grid(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built before the value count was checked")
    monkeypatch.setattr(grids, "build_grid", refuse)
    path = tmp_path / "huge.field"
    path.write_text("cartesian 16 100000000\n" + "0 " * 64)
    with pytest.raises(ValidationError, match="100000000"):
        reports.load_field(str(path))


BAD_VALUE_TOKENS = ["x", "1.2.3", "--1", "0x10", "0,5", "nan", "inf", "-inf", "1e999"]


@st.composite
def malformed_field_texts(draw):
    """A valid field file with exactly one defect; header resolutions stay
    within 1024 so that no example can allocate much."""
    kind = draw(st.sampled_from(["cartesian", "radial"]))
    n = draw(st.integers(grids.MIN_RESOLUTION, 16 if kind == "cartesian" else 64))
    header = [kind, repr(draw(st.floats(0.5, 50.0))), str(n)]
    values = ["0.25"] * (n * n if kind == "cartesian" else n)
    valid = " ".join(header) + "\n" + " ".join(values) + "\n"
    defect = draw(st.sampled_from(["kind", "radius", "resolution", "header",
                                   "count", "value"]))
    if defect == "kind":
        header[0] = draw(st.sampled_from(["hexagonal", "polar", "Cartesian", "radial2"]))
    elif defect == "radius":
        header[1] = draw(st.one_of(
            st.floats(max_value=0.0).map(repr),
            st.sampled_from(["nan", "inf", "-inf", "1e999", "four"])))
    elif defect == "resolution":
        header[2] = draw(st.one_of(
            st.integers(-1024, 1024).filter(lambda m: m != n).map(str),
            st.sampled_from([f"{n}.0", "eight", "1e3"])))
    elif defect == "header":
        if draw(st.booleans()):
            del header[draw(st.integers(0, 2))]
        else:
            header.insert(draw(st.integers(0, 3)), "1")
    elif defect == "count":
        k = draw(st.integers(1, len(values)))
        values = values[k:] if draw(st.booleans()) else values + ["0.25"] * k
    else:
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from(BAD_VALUE_TOKENS))
    return valid, " ".join(header) + "\n" + " ".join(values) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=malformed_field_texts())
def test_malformed_field_files_raise_validation_error(tmp_path, texts):
    valid, malformed = texts
    path = tmp_path / "fuzz.field"
    path.write_text(valid)
    reports.load_field(str(path))
    path.write_text(malformed)
    with pytest.raises(ValidationError):
        reports.load_field(str(path))
