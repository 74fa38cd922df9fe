"""Run configuration: a plain key-value text file with nested sections.

Sections: [grid], [nonlinearity], [potential], [solver], [embedding],
[moser], [kernel_bench], [output].  Every command validates the complete
configuration before any computation starts; defaults live in the single
table below.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from . import grids
from . import nonlinearity as nl
from .energy import MIN_RAY_SAMPLES
from .errors import InvalidParameterError, ValidationError
from .solver import SolverConfig
from .spaces import PeriodicCoefficient

DEFAULTS = {
    "grid": {
        "kind": "radial",
        "domain_radius": "20.0",
        "resolution": "2048",
    },
    "nonlinearity": {
        "kind": "exp_minus_one",
        "q": "",                # required
        "p": "",
        "s0": "1.0",
        "beta": "1.0",
        "c_floor": "1.0",
        "c_amplitude": "0.0",
    },
    "potential": {
        "floor": "1.0",
        "amplitude": "0.0",
    },
    "solver": {
        # the solve command runs on a cartesian lattice whose cell divides 1,
        # so integer-lattice recentering is an exact whole-cell roll
        "grid_kind": "cartesian",
        "domain_radius": "16.0",
        "resolution": "128",
        "path_nodes": "16",
        "descent_step": "1.0",
        "max_iterations": "20000",
        "residual_tolerance": "1e-4",
        "rho_sphere": "1e-2",
        "witness_radius": "0.25",
    },
    "embedding": {
        "alpha": "",            # defaults to 2 pi at runtime
        "bound_points": "10000",
        "moser_ns": "4,8,16,32,64",
        "rho": "0.5",
    },
    "moser": {
        "ns": "8,16,32,64",
        "rho": "0.5",
        "t_max": "4.0",
        "ray_samples": "96",
    },
    "kernel_bench": {
        "sizes": "16,32,64",
        "pairs": "20",
        "bench_radius": "4.0",
    },
    "scan": {
        "s_max": "10.0",
        "points": "2000",
    },
}

KNOWN_SECTIONS = set(DEFAULTS) | {"output"}


@dataclass(frozen=True)
class RunConfig:
    command: str
    grid_kind: str
    domain_radius: float
    resolution: int
    spec: nl.NonlinearitySpec
    potential: PeriodicCoefficient
    q: float
    solver: SolverConfig
    embedding: dict
    moser: dict
    kernel_bench: dict
    scan: dict
    output_path: Optional[str] = None
    output_format: str = "json"
    seed: int = 0


def _merged(parser: configparser.ConfigParser) -> dict:
    for section in parser.sections():
        if section not in KNOWN_SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
    merged = {}
    for section, defaults in DEFAULTS.items():
        block = dict(defaults)
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in defaults:
                    raise ValidationError(
                        f"unknown key {key!r} in section [{section}]")
                block[key] = value
        merged[section] = block
    merged["output"] = dict(parser.items("output")) if parser.has_section("output") else {}
    return merged


def _as_float(block, section, key):
    raw = block.get(key, "")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"[{section}] {key} must be a finite number, got {raw!r}")
    return value


def _as_int(block, section, key):
    raw = block.get(key, "")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"[{section}] {key} must be an integer, got {raw!r}")


def _int_list(block, section, key):
    raw = block.get(key, "")
    try:
        return [int(tok) for tok in str(raw).replace(" ", "").split(",") if tok]
    except ValueError:
        raise ValidationError(f"[{section}] {key} must be a comma list of integers")


def _bounded_list(block, section, key, least):
    values = _int_list(block, section, key)
    if not values or min(values) < least:
        raise ValidationError(
            f"[{section}] {key} must be a non-empty list of integers >= {least}")
    return values


def _build_spec(block) -> tuple:
    kind = block.get("kind", "exp_minus_one")
    if kind not in nl.KINDS or kind == "custom":
        raise ValidationError(f"[nonlinearity] kind {kind!r} is not configurable")
    if not block["q"].strip():
        raise ValidationError("[nonlinearity] q is required")
    q = _as_float(block, "nonlinearity", "q")
    p_raw = str(block.get("p", "")).strip()
    if p_raw:
        p = _as_float(block, "nonlinearity", "p")
    else:
        p = {"exp_minus_one": 1.0, "power_exp": q, "piecewise": 2.0}[kind]
    try:
        spec = nl.NonlinearitySpec(
            kind=kind, p=p, q=q,
            s0=_as_float(block, "nonlinearity", "s0"),
            beta=_as_float(block, "nonlinearity", "beta"),
            c_profile=PeriodicCoefficient(
                _as_float(block, "nonlinearity", "c_floor"),
                _as_float(block, "nonlinearity", "c_amplitude")))
    except Exception as exc:
        raise ValidationError(f"invalid nonlinearity block: {exc}")
    return spec, q


def load_config(path: Optional[str], command: str, output_path=None,
                output_format="json", seed=0) -> RunConfig:
    """Parse and fully validate a configuration file (or pure defaults)."""
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ValidationError(f"cannot read config file {path!r}")
    merged = _merged(parser)

    gblock = merged["grid"]
    grid_kind = gblock.get("kind", "radial")
    if grid_kind not in ("radial", "cartesian"):
        raise ValidationError(f"[grid] kind must be radial or cartesian")
    radius = _as_float(gblock, "grid", "domain_radius")
    resolution = _as_int(gblock, "grid", "resolution")
    if not radius > 0 or resolution < 8:
        raise ValidationError("[grid] needs domain_radius > 0, resolution >= 8")

    spec, q = _build_spec(merged["nonlinearity"])
    pblock = merged["potential"]
    floor = _as_float(pblock, "potential", "floor")
    amplitude = _as_float(pblock, "potential", "amplitude")
    if not floor > 0 or not amplitude >= 0:
        raise ValidationError("[potential] needs floor > 0 and amplitude >= 0")
    potential = PeriodicCoefficient(floor, amplitude)

    sblock = merged["solver"]
    try:
        solver = SolverConfig(
            spec=spec, potential=potential, seed=seed,
            grid_kind=sblock["grid_kind"],
            domain_radius=_as_float(sblock, "solver", "domain_radius"),
            resolution=_as_int(sblock, "solver", "resolution"),
            path_nodes=_as_int(sblock, "solver", "path_nodes"),
            descent_step=_as_float(sblock, "solver", "descent_step"),
            max_iterations=_as_int(sblock, "solver", "max_iterations"),
            residual_tolerance=_as_float(sblock, "solver", "residual_tolerance"),
            rho_sphere=_as_float(sblock, "solver", "rho_sphere"),
            witness_radius=_as_float(sblock, "solver", "witness_radius"))
    except InvalidParameterError as exc:
        raise ValidationError(f"[solver] {exc}")

    eblock = merged["embedding"]
    embedding = {
        "alpha": (_as_float(eblock, "embedding", "alpha")
                  if str(eblock.get("alpha", "")).strip() else None),
        "bound_points": _as_int(eblock, "embedding", "bound_points"),
        "moser_ns": _bounded_list(eblock, "embedding", "moser_ns", 2),
        "rho": _as_float(eblock, "embedding", "rho"),
    }
    mblock = merged["moser"]
    moser = {
        "ns": _bounded_list(mblock, "moser", "ns", 2),
        "rho": _as_float(mblock, "moser", "rho"),
        "t_max": _as_float(mblock, "moser", "t_max"),
        "ray_samples": _as_int(mblock, "moser", "ray_samples"),
    }
    if not 0.0 < moser["rho"] <= 0.5:
        raise ValidationError("[moser] rho must lie in (0, 1/2]")
    if moser["ray_samples"] < MIN_RAY_SAMPLES or not moser["t_max"] > 0:
        raise ValidationError(
            f"[moser] needs ray_samples >= {MIN_RAY_SAMPLES} and t_max > 0")
    if not 0.0 < embedding["rho"] <= 0.5:
        raise ValidationError("[embedding] rho must lie in (0, 1/2]")
    if embedding["alpha"] is not None and not embedding["alpha"] > 0:
        raise ValidationError("[embedding] alpha must be positive")
    if embedding["bound_points"] < 1:
        raise ValidationError("[embedding] bound_points must be >= 1")
    kblock = merged["kernel_bench"]
    kernel_bench = {
        "sizes": _bounded_list(kblock, "kernel_bench", "sizes",
                               grids.MIN_RESOLUTION),
        "pairs": _as_int(kblock, "kernel_bench", "pairs"),
        "bench_radius": _as_float(kblock, "kernel_bench", "bench_radius"),
    }
    if kernel_bench["pairs"] < 1 or not kernel_bench["bench_radius"] > 0:
        raise ValidationError("[kernel_bench] needs pairs >= 1 and bench_radius > 0")
    scblock = merged["scan"]
    scan = {
        "s_max": _as_float(scblock, "scan", "s_max"),
        "points": _as_int(scblock, "scan", "points"),
    }
    if not scan["s_max"] >= 10.0:
        raise ValidationError("[scan] s_max must be >= 10")

    out = merged["output"]
    if output_format not in ("json", "csv"):
        raise ValidationError("output format must be json or csv")
    return RunConfig(
        command=command, grid_kind=grid_kind, domain_radius=radius,
        resolution=resolution, spec=spec, potential=potential, q=q,
        solver=solver, embedding=embedding, moser=moser,
        kernel_bench=kernel_bench, scan=scan,
        output_path=output_path or out.get("path"),
        output_format=output_format, seed=seed,
    )
