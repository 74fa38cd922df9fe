"""Command-line interface.

Subcommands: check-assumptions, verify-embedding, moser-scan, solve,
kernel-bench.  Exit codes: 0 success, 2 validation error, 3
admissibility/geometry failure, 4 budget exhausted.

The implementation is serial throughout, so reruns give bit-reproducible
reports.  Only kernel-bench draws random numbers (its pairs, from
``--seed``); every command accepts ``--seed``, but a solve does not depend
on it.  Wall-clock timings appear only in kernel-bench reports, which keeps
the other reports bit-identical across reruns.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import energy, families, grids, kernel, reports, solver, spaces
from . import nonlinearity as nl
from .config import RunConfig, load_config
from .errors import (GeometryFailureError, LogChoquardError, ValidationError)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ADMISSIBILITY = 3
EXIT_BUDGET = 4


def _tail_mass_fraction(field: grids.GridField) -> float:
    """Truncation diagnostic: share of the squared mass in the outer 10%."""
    r = field.grid.radii()
    mass = field.grid.weights * field.values**2
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    outer = float(np.sum(mass[r > 0.9 * field.grid.domain_radius]))
    return outer / total


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check_assumptions(cfg: RunConfig):
    report = nl.check_assumptions(cfg.spec, cfg.potential)
    results = {
        "f1_ok": report.f1_ok, "f2_ok": report.f2_ok,
        "f3_ok": report.f3_ok, "f4_ok": report.f4_ok,
        "delta_estimate": report.delta_estimate,
        "C_estimate": report.C_estimate,
        "f4_tail_power": report.f4_tail_power,
        "script_V": report.script_V,
        "script_V_argmin_rho": report.script_V_argmin,
        "ambrosetti_rabinowitz_improved": report.ar_improved_ok,
        "q_limit": report.q_limit,
        "s_epsilon": report.s_epsilon,
        "epsilon": report.epsilon,
    }
    diagnostics = {"saturation_onset": float(np.sqrt(spaces.EXP_GUARD / (4 * np.pi)))}
    code = EXIT_OK if report.all_ok else EXIT_ADMISSIBILITY
    return results, diagnostics, code


def cmd_verify_embedding(cfg: RunConfig):
    grid_settings, embedding = cfg.settings["grid"], cfg.settings["embedding"]
    grid = grids.build_grid("radial", **grid_settings)
    n_points = embedding["bound_points"]
    r = np.geomspace(1e-6, 1e4, n_points)
    chain1, chain2 = spaces.transform_bound_chains(r)
    bounds_ok = bool(np.all(chain1[0] < chain1[1]) and np.all(chain1[1] < chain1[2])
                     and np.all(chain2[0] < chain2[1]) and np.all(chain2[1] < chain2[2]))
    probe = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, n_points)))
    roundtrip = float(np.max(np.abs(
        spaces.radial_map_T_inverse(spaces.radial_map_T(probe)) - probe)))

    sandwich = []
    sandwich_ok = True
    for name, u in families.sandwich_family(grid):
        h1, w0, ratio = spaces.sandwich_ratio(u)
        ok = (w0 / 3.0) / 1.02 < h1 < 2.0 * w0 * 1.02
        sandwich_ok &= ok
        sandwich.append({"field": name, "h1_sq": h1, "w0_sq": w0,
                         "ratio": ratio, "ok": ok})

    alpha, rho = embedding["alpha"], embedding["rho"]
    family = []
    for n in embedding["moser_ns"]:
        cap_grid = energy.moser_grid(n, rho, **grid_settings)
        family.append(({"n": n, "rho": rho},
                       energy.moser_cap(n, rho, cap_grid)[1]))
    best, best_params, tm_values = spaces.tm_sup_search(family, alpha)

    results = {
        "pointwise_bounds_ok": bounds_ok,
        "inverse_roundtrip_max_error": roundtrip,
        "sandwich": sandwich,
        "sandwich_ok": sandwich_ok,
        "alpha": alpha,
        "tm_family_values": [{"n": params["n"], "value": value}
                             for params, value in tm_values],
        "tm_empirical_supremum": best,
        "tm_supremum_params": dict(best_params),
    }
    if cfg.spec.q > 2:
        alpha_q = 1.0 / np.sqrt(cfg.spec.q)
        _, _, q_values = spaces.tm_sup_search(family, alpha_q, q_cap=cfg.spec.q)
        results["orlicz_q_variant"] = {
            "alpha": float(alpha_q), "q": cfg.spec.q,
            "values": [{"n": params["n"], "value": value}
                       for params, value in q_values]}
    diagnostics = {"grid_nodes": grid.resolution,
                   "truncation_radius": grid.domain_radius}
    ok = bounds_ok and sandwich_ok and roundtrip <= 1e-10
    return results, diagnostics, EXIT_OK if ok else EXIT_ADMISSIBILITY


def cmd_moser_scan(cfg: RunConfig):
    # the caps live on radial grids: reject a coefficient they cannot carry
    # before any cap is built
    for coefficient in (cfg.potential, cfg.spec.c_profile):
        coefficient.require_grid_kind("radial")
    moser, grid_settings = cfg.settings["moser"], cfg.settings["grid"]
    rho = moser["rho"]
    rows = []
    family = []
    for n in moser["ns"]:
        grid = energy.moser_grid(n, rho, **grid_settings)
        cap, w_plain = energy.moser_cap(n, rho, grid, q=cfg.spec.q,
                                        potential=cfg.potential)
        rows.append({
            "n": n, "rho": rho,
            "delta_n": cap.delta_n,
            "norm_1qw_sq": spaces.norm_1qw_sq(w_plain, cfg.spec.q, cfg.potential),
            "dirichlet": grids.dirichlet_energy(w_plain),
        })
        # the ray family takes the normalized caps w_n / sqrt(1 + delta_n)
        family.append(({"n": n}, w_plain.with_values(
            w_plain.values / math.sqrt(1.0 + cap.delta_n))))
    bound, witness, rays = energy.mp_level_upper_bound(
        cfg.spec, cfg.potential, family, t_max=moser["t_max"])
    for row, ray in zip(rows, rays):
        row.update(t_star=ray.t_star, ray_max=ray.max_value,
                   identity_residuals=list(ray.derivative_identities))
    results = {
        "table": rows,
        "mp_level_upper_bound": bound,
        "witness": dict(witness),
        "below_half": bool(bound < 0.5),
    }
    diagnostics = {"rho": rho, "grid_nodes": grid_settings["resolution"]}
    code = EXIT_OK if bound < 0.5 else EXIT_ADMISSIBILITY
    return results, diagnostics, code


def cmd_solve(cfg: RunConfig):
    result = solver.solve_mountain_pass(cfg.solver)
    diag = solver.ps_diagnostics(result.field_trace, cfg.spec, cfg.potential,
                                 level=result.level)
    field_path = (cfg.output_path or "solution") + ".field"
    reports.save_field(result.field, field_path)
    trace = result.ps_trace
    results = {
        "level": result.level,
        "path_level": result.path_level,
        "residual": result.residual,
        "iterations": result.iterations,
        "newton_steps": result.newton_steps,
        "hessian_products": result.hessian_products,
        "converged": result.converged,
        "status": result.status,
        "delta0": result.delta0,
        "vanishing_indicator": result.vanishing_indicator,
        "recentering_shift": list(result.recentering_shift),
        "recentering_energy_delta": result.recentering_energy_delta,
        "field_file": field_path,
        "field_nonnegative": bool(np.min(result.field.values) >= 0.0),
        "field_max": float(np.max(result.field.values)),
        "ps_trace_tail": [[lvl, res] for lvl, res in trace[-10:]],
        "ps_diagnostics": {
            "sup_norm_V_sq": diag.sup_norm_V_sq,
            "sup_abs_frak": diag.sup_abs_frak,
            "sup_abs_pairing": diag.sup_abs_pairing,
            "alpha": diag.alpha,
            "integrability": [float(v) for v in diag.integrability],
        },
    }
    diagnostics = {
        "truncation_tail_mass_fraction": _tail_mass_fraction(result.field),
        "saturation": bool(np.any(nl.saturation_mask(
            cfg.spec, result.field.values))),
    }
    code = EXIT_OK if result.converged else EXIT_BUDGET
    return results, diagnostics, code


def cmd_kernel_bench(cfg: RunConfig):
    bench = cfg.settings["kernel_bench"]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    all_ok = True
    for size in bench["sizes"]:
        grid = grids.build_grid("cartesian", bench["bench_radius"], size)
        worst = 0.0
        t_fast = 0.0
        pairs = [(families.random_smooth(grid, rng),
                  families.random_smooth(grid, rng))
                 for _ in range(bench["pairs"])]
        t0 = time.perf_counter()
        refs = kernel.bilinear_direct_many(pairs)
        t_direct = time.perf_counter() - t0
        for (u, v), ref in zip(pairs, refs):
            t0 = time.perf_counter()
            fast = kernel.bilinear_fast(u, v)
            t_fast += time.perf_counter() - t0
            # B0 = B2 - B1 inherits the scale of its split; 0/0 reads 0,
            # and a nan error is the worst
            scale = max(abs(ref.b1), abs(ref.b2))
            for which in ("B0", "B1", "B2"):
                gap = abs(fast.value(which) - ref.value(which))
                err = gap / scale if gap else 0.0
                if not err <= worst:
                    worst = err
        ok = worst <= 1e-6
        all_ok &= ok
        rows.append({"grid": f"{size}x{size}", "max_relative_error": worst,
                     "direct_seconds": t_direct, "fast_seconds": t_fast,
                     "ok": ok})
    results = {"table": rows, "tolerance": 1e-6, "all_ok": all_ok}
    diagnostics = {"pairs_per_grid": bench["pairs"]}
    return results, diagnostics, EXIT_OK if all_ok else EXIT_ADMISSIBILITY


COMMANDS = {
    "check-assumptions": cmd_check_assumptions,
    "verify-embedding": cmd_verify_embedding,
    "moser-scan": cmd_moser_scan,
    "solve": cmd_solve,
    "kernel-bench": cmd_kernel_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logchoquard",
        description="Desk-scale toolkit for the planar log-kernel Choquard "
                    "equation: weighted TM functionals, kernel forms, Moser "
                    "level estimates and a mountain-pass solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="configuration file")
        p.add_argument("--output", default=None, help="report output path")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, output_path=args.output,
                          output_format=args.format, seed=args.seed)
        results, diagnostics, code = COMMANDS[args.command](cfg)
        report = reports.build_report(args.command,
                                      {**cfg.settings, "seed": cfg.seed},
                                      results, diagnostics)
        text = reports.write_report(report, cfg.output_path, cfg.output_format)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GeometryFailureError as exc:
        print(f"geometry/admissibility failure: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except LogChoquardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        print(f"report written to {cfg.output_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
