"""Reconstructor set-up code that left the library, kept here as oracles: the
per-link weight loop and the voxel-space Laplacian product that the build
used to check its solve with."""

from __future__ import annotations

import math

import numpy as np

from rti.geometry import NetworkLayout, VoxelGrid, WeightMatrix


def build_weight_matrix(grid: VoxelGrid, layout: NetworkLayout, lam: float) -> WeightMatrix:
    """One link at a time: voxels with d1 + d2 < d + lam weigh 1/sqrt(d)."""
    centers = grid.centers()
    entries = np.zeros((layout.num_links, grid.num_voxels))
    for i, (tx_id, rx_id) in enumerate(layout.links):
        tx, rx = layout.node(tx_id), layout.node(rx_id)
        d = math.hypot(rx.x - tx.x, rx.y - tx.y)
        d1 = np.hypot(centers[:, 0] - tx.x, centers[:, 1] - tx.y)
        d2 = np.hypot(centers[:, 0] - rx.x, centers[:, 1] - rx.y)
        inside = (d1 + d2) < (d + lam)
        entries[i, inside] = 1.0 / math.sqrt(d)
    return WeightMatrix(entries=entries, lam=lam)


def apply_laplacian(pi: np.ndarray, height: int, width: int) -> np.ndarray:
    """Q @ pi for Q = D^T D, D the first differences between 4-neighbours."""
    p = pi.reshape(height, width, -1)
    out = np.zeros_like(p)
    north = np.diff(p, axis=0)
    out[:-1] -= north
    out[1:] += north
    east = np.diff(p, axis=1)
    out[:, :-1] -= east
    out[:, 1:] += east
    return out.reshape(pi.shape)


def dense_residual(A, alpha, regularizer, pi, grid=None) -> float:
    """max |(A^T A + alpha Q) pi - A^T|, formed in voxel space."""
    if regularizer == "identity":
        q_pi = pi
    else:
        q_pi = apply_laplacian(pi, grid.height_voxels, grid.width_voxels)
    return float(np.max(np.abs(A.T @ (A @ pi) + alpha * q_pi - A.T)))
