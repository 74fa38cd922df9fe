"""Built-in test field families: Gaussians, compact bumps, the Moser
profile, and seeded random smooth fields."""

from __future__ import annotations

import numpy as np

from . import grids
from .errors import GridMismatchError

RANDOM_BUMPS = 6        # Gaussians per random_smooth field


def moser_profile(r, n: int, rho: float):
    """Three-branch Moser cap: plateau sqrt(log n / 2 pi) on [0, rho/n],
    logarithmic decay on [rho/n, rho], zero beyond rho."""
    r = np.asarray(r, dtype=float)
    log_n = np.log(n)
    plateau = np.sqrt(log_n / (2.0 * np.pi))
    with np.errstate(divide="ignore"):
        branch = np.log(rho / np.maximum(r, 1e-300)) / np.sqrt(2.0 * np.pi * log_n)
    out = np.where(r <= rho / n, plateau, np.where(r < rho, branch, 0.0))
    return out


def gaussian(grid: grids.Grid, sigma: float = 1.0, center=(0.0, 0.0),
             amplitude: float = 1.0) -> grids.GridField:
    if grid.kind == "radial":
        if center != (0.0, 0.0):
            raise GridMismatchError("radial grids only support centered gaussians")
        r = grid.radii()
        return grids.GridField(grid, amplitude * np.exp(-(r / sigma) ** 2))
    xx, yy = grid.meshgrid()
    rr2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
    return grids.GridField(grid, amplitude * np.exp(-rr2 / sigma**2))


def bump(grid: grids.Grid, radius: float = 0.25, center=(0.0, 0.0),
         amplitude: float = 1.0) -> grids.GridField:
    """Smooth compactly supported mollifier, = amplitude at the center,
    identically zero outside the ball of the given radius."""
    if grid.kind == "radial":
        if center != (0.0, 0.0):
            raise GridMismatchError("radial grids only support centered bumps")
        d2 = (grid.radii() / radius) ** 2
    else:
        xx, yy = grid.meshgrid()
        d2 = ((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / radius**2
    inside = d2 < 1.0
    vals = np.zeros(grid.shape)
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - d2[inside]))
    return grids.GridField(grid, vals)


def random_smooth(grid: grids.Grid, rng: np.random.Generator,
                  max_center: float | None = None,
                  positive: bool = False) -> grids.GridField:
    """Seeded superposition of RANDOM_BUMPS random Gaussians, for randomized oracles.

    ``positive`` restricts to nonnegative amplitudes; sign-definite fields
    stay clear of the curvature kink of the one-sided nonlinearity at 0.
    """
    if max_center is None:
        max_center = 0.5 * grid.domain_radius
    # one draw per field, in the order of one Generator.uniform call per
    # bump and coordinate, each mapped as uniform maps it, low + (high - low) u:
    # the field and the stream position match such a loop bit for bit
    amp_low = 0.2 if positive else -1.0
    if grid.kind == "radial":       # amplitude, width, centre radius
        low, high = [amp_low, 0.2, 0.0], [1.0, 1.0, max_center]
    else:                           # amplitude, width, centre x and y
        low = [amp_low, 0.2, -max_center, -max_center]
        high = [1.0, 1.0, max_center, max_center]
    low, high = np.array(low), np.array(high)
    draws = low + (high - low) * rng.random((RANDOM_BUMPS, len(low)))
    amp = draws[:, 0]
    sigma = draws[:, 1:2] * max(grid.spacing * 4, 0.2)
    if grid.kind == "radial":
        bumps = np.exp(-((grid.radii() - draws[:, 2:]) / sigma) ** 2)
        vals = np.zeros(grid.shape)
        for i in range(RANDOM_BUMPS):
            vals += amp[i] * bumps[i]
        return grids.GridField(grid, vals)
    # the Gaussian is separable: an outer product of two axis factors costs
    # 2n exponentials instead of n^2, and one exp call per axis forms every
    # bump's factor
    x = grid.nodes
    fx = np.exp(-((x - draws[:, 2:3]) / sigma) ** 2)
    fy = np.exp(-((x - draws[:, 3:4]) / sigma) ** 2)
    vals = np.zeros(grid.shape)
    for i in range(RANDOM_BUMPS):
        vals += amp[i] * np.outer(fx[i], fy[i])
    return grids.GridField(grid, vals)


def sandwich_family(grid: grids.Grid):
    """>= 10 radial profiles (gaussians, bumps, Moser caps) for norm checks."""
    members = []
    for sigma in (0.5, 0.8, 1.2, 2.0, 3.0):
        members.append((f"gaussian_sigma={sigma}", gaussian(grid, sigma)))
    for radius in (1.0, 2.0, 4.0):
        members.append((f"bump_radius={radius}", bump(grid, radius)))
    for n in (8, 32):
        members.append(
            (f"moser_n={n}",
             grids.GridField(grid, moser_profile(grid.radii(), n, 0.5))))
    return members

