"""Regularized image reconstruction from link statistics."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import VoxelGrid, WeightMatrix
from .linkstats import _window_sum

REGULARIZERS = ("identity", "difference")


class ReconstructionError(RuntimeError):
    """Raised when the regularized system cannot be solved reliably."""


@dataclass(frozen=True)
class ImageFrame:
    """Voxel attenuation estimates for one tick (index order of the grid)."""

    time: int
    values: np.ndarray


@dataclass(frozen=True)
class Reconstructor:
    """Precomputed linear map from link statistics to a voxel image."""

    pi: np.ndarray  # (num_voxels, num_links)
    alpha: float
    regularizer: str
    lam: float | None  # the WeightMatrix's ellipse excess; None for a bare array
    residual: float  # link-space bound on max |(A^T A + alpha Q) pi - A^T|, <= 1e-6

    @property
    def num_links(self) -> int:
        return self.pi.shape[1]

    @property
    def num_voxels(self) -> int:
        return self.pi.shape[0]


# Eigenvalue given to the Laplacian's constant null mode before Woodbury takes
# it back out; any positive value yields the same pi.
_NULL_MODE_LIFT = 1.0
# Links per block of the difference regulariser's DCT chain, so that its
# transforms hold a few (block, voxels) arrays rather than (links, voxels) ones.
_LINK_BLOCK = 64


def _dct_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C (rows are modes) and the eigenvalues lam of
    the n-point Neumann path Laplacian, which equals C^T diag(lam) C."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    basis[0] = np.sqrt(1.0 / n)
    eigenvalues = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
    return basis, eigenvalues


def _b_inv_rows(A: np.ndarray, alpha: float, grid: VoxelGrid) -> np.ndarray:
    """B^-1 applied to each row of A, for B = alpha Q + beta u u^T on the
    grid's Neumann Laplacian Q: the DCT-II, the spectrum's reciprocal and the
    inverse DCT-II, a block of links at a time."""
    height, width = grid.height_voxels, grid.width_voxels
    c_h, lam_h = _dct_basis(height)
    c_w, lam_w = _dct_basis(width)
    spectrum = alpha * (lam_h[:, None] + lam_w[None, :])
    spectrum[0, 0] = _NULL_MODE_LIFT
    out = np.empty((len(A), height * width))
    for start in range(0, len(A), _LINK_BLOCK):
        rows = slice(start, start + _LINK_BLOCK)
        modes = c_h @ A[rows].reshape(-1, height, width) @ c_w.T
        modes /= spectrum
        out[rows] = (c_h.T @ modes @ c_w).reshape(-1, height * width)
    return out


def _checked_residual(A: np.ndarray, s: np.ndarray, x: np.ndarray) -> float:
    """The link-space bound on max |(A^T A + alpha Q) pi - A^T| for the
    solution x of s, which raises ReconstructionError above 1e-6 or when not
    finite.

    The voxel residual is A^T E[:L] - beta u E[L] for E = s x - [I; 0] (no
    row E[L] for the identity): bound it by A's largest column 1-norm and |u|.
    """
    links, n = A.shape
    error = s @ x
    error[np.diag_indices(links)] -= 1.0
    np.abs(error, out=error)
    # The column sums of |A| add its rows in order, as np.linalg.norm(A, 1)
    # does, without an |A| copy.
    column_norms = np.abs(A[0])
    for row in A[1:]:
        column_norms += np.abs(row)
    residual = float(column_norms.max() * error[:links].max()
                     + _NULL_MODE_LIFT / np.sqrt(n) * error[links:].max(initial=0.0))
    if not np.isfinite(residual) or residual > 1e-6:
        raise ReconstructionError(
            f"solve residual {residual:.3e} exceeds 1e-6; system is ill-conditioned"
        )
    return residual


def build_reconstructor(
    weights: WeightMatrix | np.ndarray,
    alpha: float,
    regularizer: str = "difference",
    grid: VoxelGrid | None = None,
) -> Reconstructor:
    """Precompute pi = (A^T A + alpha Q)^-1 A^T, the regularized pseudo-inverse.

    The difference regularizer (Q = D^T D, D the 4-neighbour first
    differences) penalises spatial gradients and needs the grid to know the
    row layout; the identity regularizer (Q = I) penalises magnitude.

    Every solve is in link space, so no voxels x voxels array is formed. For
    the identity, pi = A^T (A A^T + alpha I)^-1. For the difference, Q is the
    grid's Neumann Laplacian, which the separable DCT-II diagonalises. Its
    constant null mode u = 1/sqrt(N) is lifted to B = alpha Q + beta u u^T,
    and Woodbury with U = [A^T, u], D = diag(I, -beta) leaves one
    (L+1) x (L+1) solve. For L links on an H x W grid of N voxels, the DCT
    costs O(L N (H+W)) and the link-space products O(L^2 N).
    The check is in link space too, before pi is formed: a bound on
    max |(A^T A + alpha Q) pi - A^T| above 1e-6, or not finite, raises
    ReconstructionError.

    The set-up's working set is A, B^-1 A^T (difference only), pi and a few
    (L+1) x (L+1) arrays; the DCT runs on blocks of 64 links, so its
    transforms add a few such blocks, not (L, N) arrays.
    """
    if isinstance(weights, WeightMatrix):
        A, lam = weights.entries, weights.lam
    else:
        A, lam = np.asarray(weights, dtype=float), None
    if A.ndim != 2 or A.size == 0:
        raise ValueError("weight matrix must be a nonempty 2-D array")
    if not np.any(A):
        raise ValueError("weight matrix has no nonzero entries")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if regularizer not in REGULARIZERS:
        raise ValueError(f"regularizer must be one of {REGULARIZERS}")
    links, n = A.shape
    if regularizer == "difference":
        if grid is None:
            raise ValueError("difference regularizer needs the voxel grid")
        if grid.num_voxels != n:
            raise ValueError(
                f"grid has {grid.num_voxels} voxels but weight matrix has {n} columns"
            )
    try:
        if regularizer == "identity":
            s = A @ A.T
            s[np.diag_indices(links)] += alpha
            x = np.linalg.inv(s)
        else:
            # Row l of b_inv_at is B^-1 applied to link l's weight row.
            b_inv_at = _b_inv_rows(A, alpha, grid)
            # B^-1 u = u / beta, a constant vector with this entry.
            b_inv_u = 1.0 / (np.sqrt(n) * _NULL_MODE_LIFT)
            # s = D^-1 + U^T B^-1 U; its corner -1/beta + u^T B^-1 u is 0.
            s = np.zeros((links + 1, links + 1))
            np.matmul(A, b_inv_at.T, out=s[:links, :links])
            s[np.diag_indices(links)] += 1.0
            s[:links, links] = s[links, :links] = A.sum(axis=1) * b_inv_u
            x = np.linalg.solve(s, np.eye(links + 1, links))
    except np.linalg.LinAlgError as exc:
        raise ReconstructionError(f"regularized system is singular: {exc}") from exc
    residual = _checked_residual(A, s, x)
    del s  # its last use; pi needs the room
    if regularizer == "identity":
        pi = A.T @ x
    else:
        # pi is the link columns of B^-1 U s^-1.
        pi = b_inv_at.T @ x[:links]
        pi += b_inv_u * x[links]
    return Reconstructor(
        pi=pi, alpha=float(alpha), regularizer=regularizer, lam=lam, residual=residual
    )


def reconstruct(rec: Reconstructor, stats: np.ndarray, time: int = 0) -> ImageFrame:
    """Map one tick's link statistic vector to a voxel image."""
    y = np.asarray(stats, dtype=float)
    if y.shape != (rec.num_links,):
        raise ValueError(f"expected {rec.num_links} link statistics, got {y.shape}")
    return ImageFrame(time=time, values=rec.pi @ y)


def reconstruct_images(rec: Reconstructor, stats: np.ndarray) -> np.ndarray:
    """Images of (ticks, links) statistics as one (ticks, voxels) product; a
    row equals `reconstruct` of it up to rounding (about 1e-15)."""
    y = np.asarray(stats, dtype=float)
    if y.ndim != 2 or y.shape[1] != rec.num_links:
        raise ValueError(f"expected {rec.num_links} link statistics, got {y.shape}")
    return y @ rec.pi.T


@functools.lru_cache(maxsize=8)
def _voxel_centres(grid: VoxelGrid) -> np.ndarray:
    centres = grid.centers()
    centres.flags.writeable = False
    return centres


def argmax_positions(images: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Centre of the brightest voxel of each image row, shaped (rows, 2).

    When several voxels tie for the maximum, the result is the mean of their
    centres. Voxels covered by the same set of links have equal weight
    columns and so exactly equal image values; the plateau's centre does not
    favour one corner of it.
    """
    values = np.asarray(images)
    if values.ndim != 2 or values.shape[1] != grid.num_voxels:
        raise ValueError("frame size does not match grid")
    table = _voxel_centres(grid)
    centres = table[values.argmax(axis=1)]
    tied = values == values.max(axis=1, keepdims=True)
    # A row with a plateau (or a NaN) breaks the count; only then group the
    # plateau rows by tie count. Each plateau mean sums its centres in the
    # order np.mean sums a 1-D array.
    if np.count_nonzero(tied) != len(values):
        counts = np.count_nonzero(tied, axis=1)
        for count in np.unique(counts[counts > 1]):
            rows = np.flatnonzero(counts == count)
            xy = table[np.nonzero(tied[rows])[1]].reshape(len(rows), count, 2)
            centres[rows] = _window_sum(lambda j: xy[:, j], 0, count) / count
    return centres


def argmax_voxel(frame: ImageFrame, grid: VoxelGrid) -> tuple[float, float]:
    """`argmax_positions` of one frame."""
    return tuple(argmax_positions(np.asarray(frame.values)[None], grid)[0].tolist())


# ------------------------------------------------------------- exporters


def frame_to_csv(frame: ImageFrame, grid: VoxelGrid) -> str:
    """Row-major CSV: one line per grid row, southernmost row first."""
    values = np.asarray(frame.values, dtype=float)
    rows = values.reshape(grid.height_voxels, grid.width_voxels).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def frame_to_pgm(frame: ImageFrame, grid: VoxelGrid) -> bytes:
    """8-bit binary PGM heat map, min-max normalised per frame.

    Image rows run north to south so the picture is map-oriented; a flat
    frame renders black.
    """
    values = np.asarray(frame.values, dtype=float).reshape(
        grid.height_voxels, grid.width_voxels
    )
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(values)
    pixels = scaled.astype(np.uint8)[::-1, :]  # top row = northernmost
    header = f"P5 {grid.width_voxels} {grid.height_voxels} 255\n".encode("ascii")
    return header + pixels.tobytes()


def write_frame_csv(path, frame: ImageFrame, grid: VoxelGrid) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(frame_to_csv(frame, grid))


def write_frame_pgm(path, frame: ImageFrame, grid: VoxelGrid) -> None:
    with open(path, "wb") as fh:
        fh.write(frame_to_pgm(frame, grid))
