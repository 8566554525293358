"""Reconstructor set-up code that left the library, kept here as oracles: the
per-link weight loop, the whole-array weight expression, the one-shot
link-space build and the voxel-space Laplacian product that the build used
to check its solve with; and the per-link map of a grouped reconstructor."""

from __future__ import annotations

import math

import numpy as np

from rti.geometry import NetworkLayout, VoxelGrid
from rti.imaging import _NULL_MODE_LIFT, _dct_basis


def build_weight_matrix(grid: VoxelGrid, layout: NetworkLayout, lam: float) -> np.ndarray:
    """The (links, voxels) matrix, one link at a time: voxels with
    d1 + d2 < d + lam weigh 1/sqrt(d)."""
    centers = grid.centers()
    entries = np.zeros((layout.num_links, grid.num_voxels))
    for i, (tx_id, rx_id) in enumerate(layout.links):
        tx, rx = layout.node(tx_id), layout.node(rx_id)
        d = math.hypot(rx.x - tx.x, rx.y - tx.y)
        d1 = np.hypot(centers[:, 0] - tx.x, centers[:, 1] - tx.y)
        d2 = np.hypot(centers[:, 0] - rx.x, centers[:, 1] - rx.y)
        inside = (d1 + d2) < (d + lam)
        entries[i, inside] = 1.0 / math.sqrt(d)
    return entries


def build_weight_matrix_at_once(
    grid: VoxelGrid, layout: NetworkLayout, lam: float
) -> np.ndarray:
    """The (links, voxels) matrix, every link at once, as (links, voxels)
    distance and mask arrays."""
    x, y = grid.centers().T
    to_node = np.hypot(x - [[n.x] for n in layout.nodes], y - [[n.y] for n in layout.nodes])
    row = {n.id: k for k, n in enumerate(layout.nodes)}
    tx, rx = np.array([(row[a], row[b]) for a, b in layout.links]).T
    d = [layout.link_distance(a, b) for a, b in layout.links]
    inside = to_node[tx] + to_node[rx] < np.add(d, lam)[:, None]
    weight = np.array([[1.0 / math.sqrt(v)] for v in d])
    return inside * weight


def group_rows(A) -> tuple[np.ndarray, np.ndarray]:
    """(first, groups) of A's equal rows, by sorting them with np.unique and
    renumbering the groups in order of first appearance."""
    _, index, inverse = np.unique(A, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(index), dtype=np.intp)
    rank[np.argsort(index)] = np.arange(len(index))
    return np.sort(index), rank[inverse.ravel()]


def expand(rec) -> np.ndarray:
    """The per-link map (voxels, links) of a grouped reconstructor: link l's
    column is its group's column over the group's size."""
    counts = np.bincount(rec.groups).astype(float)
    return rec.pi[:, rec.groups] / counts[rec.groups]


def build_at_once(A, alpha, regularizer, grid=None) -> tuple[np.ndarray, float]:
    """(pi, residual) of the grouped link-space build, each step on whole
    arrays: the rows grouped by np.unique, the DCT chain over every distinct
    row, A' A'^T + alpha C^-1 with a diagonal matrix, and the residual of
    s x - [I; 0] with np.linalg.norm of the full A."""
    first, groups = group_rows(A)
    rows, counts = A[first], np.bincount(groups).astype(float)
    distinct, n = rows.shape
    if regularizer == "identity":
        s = rows @ rows.T + np.diag(alpha / counts)
        x = np.linalg.inv(s)
        pi = rows.T @ x
    else:
        height, width = grid.height_voxels, grid.width_voxels
        c_h, lam_h = _dct_basis(height)
        c_w, lam_w = _dct_basis(width)
        spectrum = alpha * (lam_h[:, None] + lam_w[None, :])
        spectrum[0, 0] = _NULL_MODE_LIFT
        modes = c_h @ rows.reshape(distinct, height, width) @ c_w.T
        b_inv_at = (c_h.T @ (modes / spectrum) @ c_w).reshape(distinct, n)
        b_inv_u = 1.0 / (np.sqrt(n) * _NULL_MODE_LIFT)
        s = np.zeros((distinct + 1, distinct + 1))
        s[:distinct, :distinct] = np.diag(1.0 / counts) + rows @ b_inv_at.T
        s[:distinct, distinct] = s[distinct, :distinct] = rows.sum(axis=1) * b_inv_u
        x = np.linalg.solve(s, np.eye(distinct + 1, distinct))
        pi = b_inv_at.T @ x[:distinct] + b_inv_u * x[distinct]
    error = np.abs(s @ x - np.eye(len(s), distinct))
    residual = float(np.linalg.norm(A, 1) * error[:distinct].max()
                     + _NULL_MODE_LIFT / np.sqrt(n) * error[distinct:].max(initial=0.0))
    return pi, residual


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
