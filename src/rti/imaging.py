"""Regularized image reconstruction from link statistics."""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from .geometry import VoxelGrid, WeightMatrix, distinct_rows
from .linkstats import _window_sum
from .traceio import text_table, write_grid

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
    """Precomputed linear map from link statistics to a voxel image.

    Links with identical weight rows (a->b and b->a in the elliptical model)
    form one group and share one column of pi, which images the mean of the
    group's statistics.
    """

    pi: np.ndarray  # (num_voxels, distinct_rows)
    groups: np.ndarray  # (num_links,): each link's group, in order of first appearance
    alpha: float
    regularizer: str
    lam: float | None  # the WeightMatrix's ellipse excess; None for a bare array
    residual: float  # bound on the per-link map's max |(A^T A + alpha Q) pi - A^T|, <= 1e-6

    @property
    def num_links(self) -> int:
        return len(self.groups)

    @property
    def num_voxels(self) -> int:
        return self.pi.shape[0]

    @property
    def distinct_rows(self) -> int:
        return self.pi.shape[1]

    @functools.cached_property
    def _mean_plan(self) -> tuple[np.ndarray, list, np.ndarray]:
        """(first, slots, counts) for `_group_means`: the first link of each
        group, then per slot k >= 1 the groups with more than k links and
        the k-th link of each, and the groups' link counts."""
        counts = np.bincount(self.groups)
        order = np.argsort(self.groups, kind="stable")
        starts = np.cumsum(counts) - counts
        slots = []
        for k in range(1, counts.max()):
            groups = np.flatnonzero(counts > k)
            slots.append((groups, order[starts[groups] + k]))
        return order[starts], slots, counts.astype(float)


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


def _check_finite(rows: np.ndarray, groups: np.ndarray) -> None:
    """Raise ReconstructionError naming the first link whose weight row,
    rows[groups[l]], has a NaN or an infinity, checking 64 rows at a time."""
    finite = np.concatenate([np.isfinite(rows[start:start + _LINK_BLOCK]).all(axis=1)
                             for start in range(0, len(rows), _LINK_BLOCK)])
    if not finite.all():
        raise ReconstructionError(f"weight row of link {finite[groups].argmin()} is not finite")


def _checked_residual(rows: np.ndarray, groups: np.ndarray, s: np.ndarray, x: np.ndarray) -> float:
    """The link-space bound on max |(A^T A + alpha Q) pi - A^T| for the
    per-link map pi of the solution x of the grouped system s, which raises
    ReconstructionError above 1e-6 or when not finite.

    With A' the G distinct rows, C = diag(counts) and F the (links, G)
    indicator of each link's group, the voxel residual is
    (A'^T C E[:G] - beta u E[G]) C^-1 F^T for E = s x - [I; 0] (no row E[G]
    for the identity). Every column of C^-1 F^T holds one entry of at most 1,
    and the column 1-norms of A' weighted by C are those of the full A: bound
    it by the full A's largest column 1-norm and |u|.
    """
    distinct, n = x.shape[1], rows.shape[1]
    error = s @ x
    error[np.diag_indices(distinct)] -= 1.0
    np.abs(error, out=error)
    # |A|'s column sums, adding each link's row in link order as np.linalg.norm(A, 1) does.
    column_norms = np.abs(rows[groups[0]])
    for group in groups[1:].tolist():
        column_norms += np.abs(rows[group])
    residual = float(column_norms.max() * error[:distinct].max()
                     + _NULL_MODE_LIFT / np.sqrt(n) * error[distinct:].max(initial=0.0))
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
    """Precompute the regularized pseudo-inverse (A^T A + alpha Q)^-1 A^T on
    the distinct rows of A.

    The difference regularizer (Q = D^T D, D the 4-neighbour first
    differences) penalises spatial gradients and needs the grid to know the
    row layout; the identity regularizer (Q = I) penalises magnitude.

    It solves on a WeightMatrix's G distinct rows A' in place (a bare array is
    grouped by `distinct_rows`, a copy). In least squares, c equal rows with
    measurements y_1..y_c give the solution of one row of weight c with their
    mean, so the build solves on A' with counts C = diag(c), and pi (N, G)
    images the group means. When every row is distinct, C = I and the map is
    the per-link one, bit for bit.

    Every solve is in link space, so no voxels x voxels array is formed. For
    the identity, pi = A'^T (A' A'^T + alpha C^-1)^-1. For the difference, Q
    is the grid's Neumann Laplacian, which the separable DCT-II diagonalises.
    Its constant null mode u = 1/sqrt(N) is lifted to B = alpha Q + beta u u^T,
    and Woodbury with U = [A'^T, u], D = diag(C, -beta) leaves one
    (G+1) x (G+1) solve. For G distinct rows on an H x W grid of N voxels,
    the DCT costs O(G N (H+W)) and the link-space products O(G^2 N).
    The check is in link space too, before pi is formed: a bound on the
    per-link map's max |(A^T A + alpha Q) pi - A^T| above 1e-6, or not
    finite, raises ReconstructionError, as does a non-finite weight.

    The set-up's working set is A', B^-1 A'^T (difference only), pi and a
    few (G+1) x (G+1) arrays; the finiteness check and the DCT run on blocks
    of 64 rows, so they add a few such blocks, and no (L, N) array is made.
    """
    if isinstance(weights, WeightMatrix):
        rows, groups, lam = weights.rows, weights.groups, weights.lam
    else:
        rows, groups, lam = np.asarray(weights, dtype=float), None, None
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError("weight matrix must be a nonempty 2-D array")
    if not np.any(rows):
        raise ValueError("weight matrix has no nonzero entries")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if regularizer not in REGULARIZERS:
        raise ValueError(f"regularizer must be one of {REGULARIZERS}")
    n = rows.shape[1]
    if regularizer == "difference":
        if grid is None:
            raise ValueError("difference regularizer needs the voxel grid")
        if grid.num_voxels != n:
            raise ValueError(
                f"grid has {grid.num_voxels} voxels but weight matrix has {n} columns"
            )
    _check_finite(rows, np.arange(len(rows)) if groups is None else groups)
    if groups is None:
        rows, groups = distinct_rows(lambda link, out, A=rows: np.copyto(out, A[link]), *rows.shape)
    counts = np.bincount(groups, minlength=len(rows)).astype(float)
    if len(counts) != len(rows) or not counts.all():
        raise ValueError("weight groups must name every row, and only those")
    distinct = len(rows)
    try:
        if regularizer == "identity":
            s = rows @ rows.T
            s[np.diag_indices(distinct)] += alpha / counts
            x = np.linalg.inv(s)
        else:
            # Row g of b_inv_at is B^-1 applied to group g's weight row.
            b_inv_at = _b_inv_rows(rows, alpha, grid)
            # B^-1 u = u / beta, a constant vector with this entry.
            b_inv_u = 1.0 / (np.sqrt(n) * _NULL_MODE_LIFT)
            # s = D^-1 + U^T B^-1 U; its corner -1/beta + u^T B^-1 u is 0.
            s = np.zeros((distinct + 1, distinct + 1))
            np.matmul(rows, b_inv_at.T, out=s[:distinct, :distinct])
            s[np.diag_indices(distinct)] += 1.0 / counts
            s[:distinct, distinct] = s[distinct, :distinct] = rows.sum(axis=1) * b_inv_u
            x = np.linalg.solve(s, np.eye(distinct + 1, distinct))
    except np.linalg.LinAlgError as exc:
        raise ReconstructionError(f"regularized system is singular: {exc}") from exc
    residual = _checked_residual(rows, groups, s, x)
    del s  # its last use; pi needs the room
    if regularizer == "identity":
        pi = rows.T @ x
    else:
        # pi is the group columns of B^-1 U s^-1.
        pi = b_inv_at.T @ x[:distinct]
        pi += b_inv_u * x[distinct]
    return Reconstructor(
        pi=pi, groups=groups, alpha=float(alpha), regularizer=regularizer, lam=lam,
        residual=residual,
    )


def _group_means(rec: Reconstructor, y: np.ndarray) -> np.ndarray:
    """Mean statistic of each group, (..., links) -> (..., groups). A group's
    links add in link order before the division by its count, the same
    order for one tick as for a batch of them."""
    first, slots, counts = rec._mean_plan
    # np.take keeps a batch C-ordered, where y[..., first] would be F-ordered
    # and change the product's rounding.
    means = np.take(y, first, axis=-1)
    for groups, links in slots:
        means[..., groups] += np.take(y, links, axis=-1)
    if slots:
        means /= counts
    return means


def reconstruct(rec: Reconstructor, stats: np.ndarray, time: int = 0) -> ImageFrame:
    """Map one tick's link statistic vector to a voxel image."""
    y = np.asarray(stats, dtype=float)
    if y.shape != (rec.num_links,):
        raise ValueError(f"expected {rec.num_links} link statistics, got {y.shape}")
    return ImageFrame(time=time, values=rec.pi @ _group_means(rec, y))


def reconstruct_images(rec: Reconstructor, stats: np.ndarray) -> np.ndarray:
    """Images of (ticks, links) statistics as one (ticks, voxels) product; a
    row equals `reconstruct` of it up to the product's rounding (about
    1e-15), as both take the same group means."""
    y = np.asarray(stats, dtype=float)
    if y.ndim != 2 or y.shape[1] != rec.num_links:
        raise ValueError(f"expected {rec.num_links} link statistics, got {y.shape}")
    return _group_means(rec, y) @ rec.pi.T


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


def frame_to_csv(frame: ImageFrame, grid: VoxelGrid) -> bytes:
    """Row-major CSV: one line per grid row, southernmost row first."""
    values = np.asarray(frame.values, dtype=float).reshape(grid.height_voxels, grid.width_voxels)
    ends = text_table([","] * (grid.width_voxels - 1) + ["\n"])
    fh = io.BytesIO()
    write_grid(fh, values, [("", "nan"), "value", ends])
    return fh.getvalue()


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
