"""Run configuration: a plain key-value text file with nested sections.

Sections: [grid], [nonlinearity], [potential], [solver], [embedding],
[moser], [kernel_bench], [output].  ``DEFAULTS`` is the one table
of keys; each default's value gives the key's type: str, int, float,
``None`` for an optional float and a tuple for a comma list of ints.  The
[solver] rows are the defaults of ``SolverConfig``.  ``%`` is literal.
Every command validates the complete configuration before any computation
starts, and a malformed file raises ``ValidationError``.  The commands
read the validated table, [output] aside, and each report records it.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

from . import grids
from . import nonlinearity as nl
from .errors import InvalidParameterError, ValidationError
from .solver import SolverConfig
from .spaces import PeriodicCoefficient

DEFAULTS = {
    "grid": {"domain_radius": 20.0, "resolution": 2048},
    # q is required; load_config resolves an unset p to P_BY_KIND[kind]
    "nonlinearity": {"kind": "exp_minus_one", "q": None, "p": None, "s0": 1.0,
                     "c_floor": 1.0, "c_amplitude": 0.0},
    "potential": {"floor": 1.0, "amplitude": 0.0},
    "solver": {f.name: f.default for f in fields(SolverConfig)
               if f.name not in ("spec", "potential")},
    # load_config resolves an unset alpha to 2 pi
    "embedding": {"alpha": None, "bound_points": 10000,
                  "moser_ns": (4, 8, 16, 32, 64), "rho": 0.5},
    "moser": {"ns": (8, 16, 32, 64), "rho": 0.5, "t_max": 4.0},
    "kernel_bench": {"sizes": (16, 32, 64), "pairs": 20, "bench_radius": 4.0},
    "output": {"path": ""},
}

P_BY_KIND = {"exp_minus_one": 1.0, "power_exp": None, "piecewise": 2.0}  # None: q


def _least(bound):
    """(test, rule) that a number, or each entry of a list, is >= bound."""
    return (lambda v: min(v if isinstance(v, tuple) else (v,)) >= bound,
            f"must be >= {bound}")


# range checks that no constructor below makes: (section, key, test, rule)
CHECKS = (
    ("grid", "domain_radius", lambda v: v > 0, "must be positive"),
    ("grid", "resolution", *_least(grids.MIN_RESOLUTION)),
    ("nonlinearity", "kind", lambda v: v in P_BY_KIND,
     f"must be one of {', '.join(P_BY_KIND)}"),
    ("nonlinearity", "q", lambda v: v is not None, "is required"),
    ("embedding", "alpha", lambda v: v is None or v > 0, "must be positive"),
    ("embedding", "bound_points", *_least(1)),
    ("embedding", "moser_ns", *_least(2)),
    ("embedding", "rho", lambda v: 0 < v <= 0.5, "must lie in (0, 1/2]"),
    ("moser", "ns", *_least(2)),
    ("moser", "rho", lambda v: 0 < v <= 0.5, "must lie in (0, 1/2]"),
    ("moser", "t_max", lambda v: v > 0, "must be positive"),
    ("kernel_bench", "sizes", *_least(grids.MIN_RESOLUTION)),
    ("kernel_bench", "pairs", *_least(1)),
    ("kernel_bench", "bench_radius", lambda v: v > 0, "must be positive"),
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    spec: nl.NonlinearitySpec
    potential: PeriodicCoefficient
    solver: SolverConfig
    settings: dict          # every section of DEFAULTS but [output], resolved
    output_path: Optional[str] = None
    output_format: str = "json"
    seed: int = 0


def _parse(section: str, key: str, raw: str, default):
    """``raw`` as a value of the type of ``default``."""
    if isinstance(default, str):
        return raw
    if default is None and not raw.strip():
        return None
    try:
        if isinstance(default, tuple):
            value = tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
            if value:
                return value
        elif isinstance(default, int):
            return int(raw)
        elif math.isfinite(value := float(raw)):
            return value
    except ValueError:
        pass
    kind = {tuple: "a non-empty comma list of integers", int: "an integer"}.get(
        type(default), "a finite number")
    raise ValidationError(f"[{section}] {key} must be {kind}, got {raw!r}")


def _read(path: Optional[str]) -> dict:
    """Every section of ``DEFAULTS``, with the file's values parsed over it."""
    # [DEFAULT] is an ordinary section to a parser whose default section
    # no line can name, so it is reported as unknown like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        if path is not None and not parser.read(path, encoding="utf-8"):
            raise ValidationError(f"cannot read config file {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path!r}: {exc}") from exc
    values = {section: dict(rows) for section, rows in DEFAULTS.items()}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _parse(section, key, raw, DEFAULTS[section][key])
    return values


def _build(section: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ValidationError(f"[{section}] {exc}") from exc


def load_config(path: Optional[str], command: str, output_path=None,
                output_format="json", seed=0) -> RunConfig:
    """Parse and fully validate a configuration file (or pure defaults)."""
    values = _read(path)
    for section, key, test, rule in CHECKS:
        if not test(values[section][key]):
            raise ValidationError(f"[{section}] {key} {rule}, got "
                                  f"{values[section][key]!r}")
    if output_format not in ("json", "csv"):
        raise ValidationError("output format must be json or csv")
    # popped whatever --output says: a report path never reaches the report
    file_path = values.pop("output")["path"]
    output_path = output_path or file_path or None
    if output_path is not None and not os.path.isdir(
            os.path.dirname(os.path.abspath(output_path))):
        raise ValidationError(f"no directory to write {output_path!r} into")

    nonlin = values["nonlinearity"]
    if nonlin["p"] is None:
        nonlin["p"] = P_BY_KIND[nonlin["kind"]] or nonlin["q"]
    if values["embedding"]["alpha"] is None:
        values["embedding"]["alpha"] = 2 * math.pi
    args = dict(nonlin)
    c_profile = _build("nonlinearity", PeriodicCoefficient,
                       args.pop("c_floor"), args.pop("c_amplitude"))
    spec = _build("nonlinearity", nl.NonlinearitySpec, c_profile=c_profile, **args)
    potential = _build("potential", PeriodicCoefficient, **values["potential"])
    return RunConfig(
        command=command, spec=spec, potential=potential,
        solver=_build("solver", SolverConfig, spec=spec, potential=potential,
                      **values["solver"]),
        settings=values, output_path=output_path, output_format=output_format,
        seed=seed,
    )
