"""Deterministic generators of interior-supported test functions.

Tensor bumps with random centers and widths, each held on its support box,
drive the falsification checks; plateau profiles build tensor candidates on
strips.  Supports always keep clear of the outer boundary and of any excluded
cap, so sampled functions are legitimate discrete test functions without
projection artifacts.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .grid import Mesh

__all__ = ["bump_profile", "plateau_profile", "tensor_bump", "bump_family"]


def bump_profile(t: np.ndarray) -> np.ndarray:
    """C1 compactly supported profile ``(1 - t^2)^2`` on ``|t| < 1``."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    out[inside] = (1.0 - t[inside] ** 2) ** 2
    return out


def plateau_profile(t: np.ndarray, plateau: float, ramp: float) -> np.ndarray:
    """Trapezoid profile: 1 on ``|t| <= plateau``, linear to 0 at ``plateau + ramp``."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.clip((plateau + ramp - t) / ramp, 0.0, 1.0)
    return out


def tensor_bump(mesh: Mesh, center: np.ndarray, width: np.ndarray) -> tuple[tuple[slice, ...], np.ndarray]:
    """Product bump centered at ``center`` with per-axis half-widths ``width``:
    its support box, each axis profile's nonzero nodes padded by one node per
    side within the mesh (empty where the profile misses every node), and its
    values there, zero on constrained nodes.  Each value is the product of the
    profile slices on ``mesh.axes`` in the order ``((1 * f_0) * f_1) * ...``
    that a per-node loop over the axes takes."""
    box, vals = [], np.ones(())
    for ax, c, w in zip(mesh.axes, center, width):
        profile = bump_profile((ax - c) / w)
        nonzero = np.flatnonzero(profile)
        s = slice(max(int(nonzero[0]) - 1, 0), min(int(nonzero[-1]) + 2, ax.size)) if nonzero.size else slice(0, 0)
        box.append(s)
        vals = np.multiply.outer(vals, profile[s])
    vals[mesh.constrained_mask.reshape(mesh.shape)[tuple(box)]] = 0.0
    return tuple(box), vals


def bump_family(mesh: Mesh, count: int, seed: int) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """Yield ``count`` random nonzero interior bumps, deterministic in ``seed``,
    each as the support box and box-shaped values of :func:`tensor_bump`.

    Supports stay inside the domain with a one-cell margin and clear of the
    singular cap (measured over the mesh's singular axes) when one is present.
    """
    rng = np.random.default_rng(seed)
    dims = mesh.domain.dims
    lo, hi = np.array(mesh.domain.bounds).T
    extent = hi - lo
    h = mesh.spacing
    cap = mesh.singular_cap_radius
    cap_axes = list(mesh.singular_axes)

    wmax = np.minimum(0.4 * extent - h, 10 * h)
    wmin = np.minimum(2.0 * h, 0.8 * wmax)
    if np.any(wmax <= 0) or np.any(extent - 2 * (wmax + 0.5 * h) <= 0):
        raise RuntimeError("mesh too coarse for interior bump supports")

    produced = 0
    attempts = 0
    shrink = 1.0
    while produced < count:
        attempts += 1
        if attempts > 400 * count + 400:
            raise RuntimeError("could not place bump supports clear of boundary and cap")
        if attempts % 50 == 0 and shrink > 0.2:
            # repeated rejections mean the cap clearance needs narrower bumps
            shrink *= 0.7
        w_hi = np.maximum(wmax * shrink, np.minimum(1.5 * h, wmax))
        w_lo = np.minimum(wmin, 0.8 * w_hi)
        width = w_lo + (w_hi - w_lo) * rng.random(dims)
        margin = width + 0.5 * h
        center = lo + margin + (extent - 2 * margin) * rng.random(dims)
        if cap > 0:
            gap = np.maximum(np.abs(center[cap_axes]) - width[cap_axes], 0.0)
            if np.linalg.norm(gap) <= cap + np.max(h):
                continue
        box, vals = tensor_bump(mesh, center, width)
        if not vals.any():  # a profile missed every node, or every node is constrained: draw again
            continue
        amp = 0.5 + 1.5 * rng.random()
        sign = 1.0 if rng.random() < 0.5 else -1.0
        vals *= sign * amp
        yield box, vals
        produced += 1
