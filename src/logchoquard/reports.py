"""Run reports: schema-stable JSON/CSV emission and field persistence.

JSON reports go through ``json.dumps``, whose shortest-repr floats
round-trip float64 exactly; a non-finite float is written as ``null``, so
every JSON report is strict JSON.  CSV reports and field files write floats
with 17 significant digits, which round-trips as well.  Report bytes are
bit-reproducible for identical runs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import grids
from .errors import ValidationError

ARTIFACT_VERSION = "0.3.0"


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def _to_jsonable(obj, finite=False):
    """Plain Python values; with ``finite`` a nan or inf becomes None."""
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v, finite) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v, finite) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v, finite) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return None if finite and not math.isfinite(obj) else obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_json(payload: dict) -> str:
    return json.dumps(_to_jsonable(payload, finite=True), indent=2,
                      allow_nan=False) + "\n"


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}[{i}]", rows)
    else:
        if isinstance(obj, float):
            rows.append((prefix, format_float(obj)))
        elif isinstance(obj, bool):
            rows.append((prefix, "true" if obj else "false"))
        else:
            rows.append((prefix, "" if obj is None else str(obj)))


def render_csv(payload: dict) -> str:
    rows = []
    _flatten(_to_jsonable(payload), "", rows)
    lines = ["key,value"]
    for key, value in rows:
        if "," in value or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def build_report(command: str, resolved_config: dict, results: dict,
                 diagnostics: dict) -> dict:
    """Assemble the standard report envelope."""
    return {
        "command": command,
        "artifact_version": ARTIFACT_VERSION,
        "config": resolved_config,
        "results": results,
        "diagnostics": diagnostics,
    }


def write_report(report: dict, path, fmt: str = "json") -> str:
    text = render_json(report) if fmt == "json" else render_csv(report)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


# ---------------------------------------------------------------------------
# field persistence
# ---------------------------------------------------------------------------

def save_field(field: grids.GridField, path: str):
    """Header line (kind, radius, resolution) + whitespace-separated values;
    17-digit decimals give a bit-exact round trip."""
    grid = field.grid
    with open(path, "w") as handle:
        handle.write(f"{grid.kind} {format_float(grid.domain_radius)} "
                     f"{grid.resolution}\n")
        flat = field.values.ravel()
        for start in range(0, len(flat), 8):
            handle.write(" ".join(format_float(v)
                                  for v in flat[start:start + 8]) + "\n")


def load_field(path: str) -> grids.GridField:
    """Read a field file; malformed content raises ValidationError."""
    try:
        with open(path) as handle:
            header = handle.readline().split()
            tokens = handle.read().split()
        if len(header) != 3:
            raise ValueError("the header needs kind, radius and resolution")
        kind, resolution = header[0], int(header[2])
        # count before building, so a huge header resolution allocates nothing
        needed = resolution**2 if kind == "cartesian" else resolution
        if len(tokens) != needed:
            raise ValueError(f"{len(tokens)} values, the header needs {needed}")
        grid = grids.build_grid(kind, float(header[1]), resolution)
        values = np.array([float(tok) for tok in tokens])
        return grids.GridField(grid, values.reshape(grid.shape))
    except ValueError as exc:     # includes the toolkit's parameter errors
        raise ValidationError(f"malformed field file {path!r}: {exc}") from exc
