import tracemalloc

import numpy as np
import pytest

from rti import imaging
from rti.geometry import NetworkLayout, NodeSpec, WeightMatrix, build_grid, build_weight_matrix
from rti.imaging import (
    ImageFrame,
    ReconstructionError,
    argmax_positions,
    argmax_voxel,
    build_reconstructor,
    frame_to_csv,
    frame_to_pgm,
    reconstruct,
    reconstruct_images,
)
from rti.presets import ring_layout
import build_oracles
import eval_oracles


def inverse_based_reference(A, alpha, Q):
    """Independent normal-equations solution via explicit inverse."""
    return np.linalg.inv(A.T @ A + alpha * Q) @ A.T


def random_system(rng, m=5, n=12):
    return rng.normal(0.0, 1.0, size=(m, n))


def difference_operator(height: int, width: int) -> np.ndarray:
    """Dense first-difference operator over a row-major grid.

    Stacks horizontal neighbour differences over all rows, then vertical
    neighbour differences over all columns.
    """
    n = height * width
    rows = height * (width - 1) + width * (height - 1)
    L = np.zeros((rows, n))
    k = 0
    for r in range(height):
        for c in range(width - 1):
            L[k, r * width + c + 1] = 1.0
            L[k, r * width + c] = -1.0
            k += 1
    for r in range(height - 1):
        for c in range(width):
            L[k, (r + 1) * width + c] = 1.0
            L[k, r * width + c] = -1.0
            k += 1
    return L


def grid_of(height, width):
    grid = build_grid((0.0, 0.0), width * 0.5, height * 0.5, 0.5)
    assert (grid.height_voxels, grid.width_voxels) == (height, width)
    return grid


# --------------------------------------------------------------- builder


def test_single_link_identity_example():
    A = np.array([[1.0, 0.0]])
    rec = build_reconstructor(A, alpha=1.0, regularizer="identity")
    assert rec.pi == pytest.approx(np.array([[0.5], [0.0]]))


def test_matches_inverse_reference_identity():
    rng = np.random.default_rng(101)
    for _ in range(50):
        A = random_system(rng)
        alpha = float(rng.uniform(0.1, 10.0))
        rec = build_reconstructor(A, alpha, regularizer="identity")
        expected = inverse_based_reference(A, alpha, np.eye(A.shape[1]))
        assert np.max(np.abs(rec.pi - expected)) < 1e-9


def test_matches_inverse_reference_difference():
    rng = np.random.default_rng(103)
    grid = build_grid((0.0, 0.0), 2.0, 1.5, 0.5)  # 4 x 3 voxels
    L = difference_operator(grid.height_voxels, grid.width_voxels)
    Q = L.T @ L
    for _ in range(20):
        A = random_system(rng, m=6, n=grid.num_voxels)
        alpha = float(rng.uniform(0.5, 8.0))
        rec = build_reconstructor(A, alpha, regularizer="difference", grid=grid)
        expected = inverse_based_reference(A, alpha, Q)
        assert np.max(np.abs(rec.pi - expected)) < 1e-9


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
@pytest.mark.parametrize("height,width", [(3, 5), (5, 3), (2, 7), (1, 6), (6, 1), (1, 1)])
def test_link_space_matches_dense_solve(regularizer, height, width):
    rng = np.random.default_rng(1000 * height + width)
    grid = grid_of(height, width)
    n = grid.num_voxels
    if regularizer == "identity":
        Q = np.eye(n)
    else:
        L = difference_operator(height, width)
        Q = L.T @ L
    for m in (1, 4, 9):
        # Nonnegative, like real link weights. A signed random row can nearly
        # cancel the constant mode, and then the dense oracle's own error
        # exceeds 1e-10 (criterion 02 covers signed systems at 1e-9).
        A = np.abs(random_system(rng, m=m, n=n))
        alpha = float(rng.uniform(0.5, 30.0))
        rec = build_reconstructor(A, alpha, regularizer=regularizer, grid=grid)
        assert rec.pi.shape == (n, m)
        assert rec.pi.dtype == np.float64 and rec.pi.flags.c_contiguous
        expected = inverse_based_reference(A, alpha, Q)
        assert np.max(np.abs(rec.pi - expected)) <= 1e-10
        assert 0.0 <= rec.residual <= 1e-6
        # The link-space bound covers the voxel-space residual; 1e-12 allows
        # for the dense product's own rounding.
        dense = build_oracles.dense_residual(A, alpha, regularizer, rec.pi, grid)
        assert dense <= rec.residual + 1e-12


def test_link_space_matches_dense_solve_on_ring20_grid():
    # 20-node ring at 0.1 m voxels: L = 380 links, N = 3600 voxels.
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
    wm = build_weight_matrix(grid, ring_layout(20, 2.9, (3.0, 3.0)), 0.5)
    A = wm.entries
    assert A.shape == (380, 3600)
    rec = build_reconstructor(wm, 25.0, regularizer="difference", grid=grid)
    assert rec.pi.shape == (3600, 190)
    assert 0.0 <= rec.residual <= 1e-6
    pi = build_oracles.expand(rec)
    dense = build_oracles.dense_residual(A, 25.0, "difference", pi, grid)
    assert dense <= rec.residual + 1e-12
    L = difference_operator(grid.height_voxels, grid.width_voxels)
    system = L.T @ L
    del L  # 200 MB; free it before the solve
    system *= 25.0
    system += A.T @ A
    expected = np.linalg.solve(system, A.T)
    assert np.max(np.abs(pi - expected)) <= 1e-10


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
def test_residual_bounds_the_dense_residual_of_random_systems(regularizer):
    # Signed and nonnegative weights, grids from 1 x 1 to 7 x 7, 1 to 11 links.
    rng = np.random.default_rng(313)
    for trial in range(200):
        height, width = (int(v) for v in rng.integers(1, 8, size=2))
        grid = grid_of(height, width)
        A = random_system(rng, m=int(rng.integers(1, 12)), n=grid.num_voxels)
        if trial % 2:
            A = np.abs(A)
        alpha = float(rng.uniform(0.1, 30.0))
        rec = build_reconstructor(A, alpha, regularizer=regularizer, grid=grid)
        assert 0.0 <= rec.residual <= 1e-6
        dense = build_oracles.dense_residual(A, alpha, regularizer, rec.pi, grid)
        assert dense <= rec.residual + 1e-12


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("regularizer", ["identity", "difference"])
def test_residual_bound_covers_a_perturbed_solve(monkeypatch, regularizer, grouped):
    # The voxel residual equals U D E C^-1 F^T for any link-space solution x,
    # exact or not. Spoil x so that E = s x - [I; 0] is 1e-9 in every entry
    # of its link rows (identity) or of its null-mode row (difference); the
    # dense residual then reaches the matching term of the bound, at a link
    # whose group has one row when rows repeat.
    eps = 1e-9
    inv, solve = np.linalg.inv, np.linalg.solve

    def spoiled_inv(s):
        return inv(s) + solve(s, np.full(s.shape, eps))

    def spoiled_solve(s, rhs):
        extra = np.zeros(rhs.shape)
        extra[-1] = eps
        return solve(s, rhs) + solve(s, extra)

    monkeypatch.setattr(np.linalg, "inv", spoiled_inv)
    monkeypatch.setattr(np.linalg, "solve", spoiled_solve)
    grid = grid_of(1, 3)
    # Nine links over three voxels: the column 1-norms of A exceed its row
    # 1-norms, so a bound from the wrong norm falls short.
    # With groups of 1, 3 and 5 rows, a bound from the distinct rows' column
    # norms falls short.
    A = np.abs(random_system(np.random.default_rng(331), m=9, n=3)) + 1.0
    if grouped:
        A = np.repeat(A[:3], [1, 3, 5], axis=0)[[4, 0, 7, 1, 5, 2, 8, 3, 6]]
    rec = build_reconstructor(A, 2.0, regularizer=regularizer, grid=grid)
    assert rec.distinct_rows == (3 if grouped else 9)
    dense = build_oracles.dense_residual(A, 2.0, regularizer, build_oracles.expand(rec), grid)
    assert dense > 1e-11
    assert 0.5 * rec.residual <= dense <= rec.residual + 1e-12


def one_shot_case(case):
    """Weights (a WeightMatrix or a bare array) and grid of one case; the
    number in a name is its link count, against blocks of 64 links."""
    coarse = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    if case == "ring7-42":
        return build_weight_matrix(coarse, ring_layout(7, 2.9, (3.0, 3.0)), 0.5), coarse
    if case in ("ring9-64", "ring9-65"):
        wm = build_weight_matrix(coarse, ring_layout(9, 2.9, (3.0, 3.0)), 0.5)
        return wm.entries[: int(case[-2:])], coarse
    if case == "signed-65":
        grid = grid_of(8, 12)
        return np.random.default_rng(19).normal(size=(65, grid.num_voxels)), grid
    ring20 = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
    return build_weight_matrix(ring20, ring_layout(20, 2.9, (3.0, 3.0)), 0.5), ring20


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
@pytest.mark.parametrize("case", ["ring7-42", "ring9-64", "ring9-65", "signed-65", "ring20-380"])
def test_build_is_bit_identical_to_the_one_shot_build(case, regularizer):
    weights, grid = one_shot_case(case)
    A = getattr(weights, "entries", weights)
    assert len(A) == int(case.rsplit("-", 1)[1])
    rec = build_reconstructor(weights, 25.0, regularizer, grid=grid)
    first, groups = build_oracles.group_rows(A)
    assert np.array_equal(rec.groups, groups)
    pi, residual = build_oracles.build_at_once(A, 25.0, regularizer, grid)
    assert rec.pi.tobytes() == pi.tobytes()
    assert rec.residual.hex() == residual.hex()


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
def test_distinct_rows_build_the_per_link_map_bit_for_bit(regularizer):
    # With every count 1, alpha / 1 and 1 / 1 are the same bits as alpha and
    # 1, so the grouped build is the per-link build: for the identity, the
    # per-link expression itself.
    A, grid = one_shot_case("signed-65")
    rec = build_reconstructor(A, 25.0, regularizer, grid=grid)
    assert rec.groups.tolist() == list(range(65))
    assert build_oracles.expand(rec).tobytes() == rec.pi.tobytes()
    if regularizer == "identity":
        s = A @ A.T + 25.0 * np.eye(65)
        assert rec.pi.tobytes() == (A.T @ np.linalg.inv(s)).tobytes()
    y = np.random.default_rng(23).normal(size=(9, 65))
    assert reconstruct_images(rec, y).tobytes() == (y @ rec.pi.T).tobytes()
    assert reconstruct(rec, y[0]).values.tobytes() == (rec.pi @ y[0]).tobytes()


def grouped_system(rng, counts, n):
    """Rows of |normal| weights repeated counts[g] times, with two all-zero
    rows among them, in a shuffled order."""
    base = np.abs(random_system(rng, m=len(counts), n=n))
    A = np.vstack([np.repeat(base, counts, axis=0), np.zeros((2, n))])
    return A[rng.permutation(len(A))]


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
@pytest.mark.parametrize("height,width", [(3, 5), (2, 7), (1, 6), (1, 1)])
def test_groups_of_any_size_match_the_dense_solve(regularizer, height, width):
    rng = np.random.default_rng(100 * height + width)
    grid = grid_of(height, width)
    n = grid.num_voxels
    D = difference_operator(height, width)
    Q = np.eye(n) if regularizer == "identity" else D.T @ D
    for counts in ([1, 2, 3], [5, 1, 4, 3, 2], [3, 3]):
        A = grouped_system(rng, counts, n)
        alpha = float(rng.uniform(0.5, 30.0))
        rec = build_reconstructor(A, alpha, regularizer=regularizer, grid=grid)
        distinct = len(counts) + 1  # the zero rows form one group
        assert rec.distinct_rows == distinct and rec.num_links == len(A)
        assert np.array_equal(np.bincount(rec.groups), np.bincount(build_oracles.group_rows(A)[1]))
        pi = build_oracles.expand(rec)
        expected = inverse_based_reference(A, alpha, Q)
        assert np.max(np.abs(pi - expected)) <= 1e-10
        assert 0.0 <= rec.residual <= 1e-6
        dense = build_oracles.dense_residual(A, alpha, regularizer, pi, grid)
        assert dense <= rec.residual + 1e-12
        y = rng.normal(size=len(A))
        assert np.max(np.abs(reconstruct(rec, y).values - pi @ y)) <= 1e-12


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
def test_build_peak_memory_on_the_ring20_grid(regularizer):
    # Besides the weights' G distinct rows A', which it reads in place, the
    # build holds pi, B^-1 A'^T (difference only), a few (G+1) x (G+1)
    # arrays and one block of rows' transforms: each of the first two is
    # G x N. Building each step on whole arrays over all L links peaked at
    # 47.4 MB (difference) and 25.4 MB (identity); the per-link build was
    # bounded by 28.4 and 17.4 MB, the build that copied A' out of the full
    # A by 19.4 and 14.0 MB, and these bounds are 13.9 and 8.5 MB.
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
    wm = build_weight_matrix(grid, ring_layout(20, 2.9, (3.0, 3.0)), 0.5)
    n = grid.num_voxels
    tracemalloc.start()
    try:
        rec = build_reconstructor(wm, 25.0, regularizer, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    distinct = rec.distinct_rows
    assert distinct == 190
    b_inv_at = distinct * n * 8 if regularizer == "difference" else 0
    block = imaging._LINK_BLOCK * n * 8
    assert peak <= rec.pi.nbytes + b_inv_at + 4 * (distinct + 1) ** 2 * 8 + block


@pytest.mark.parametrize("height,width", [(3, 5), (5, 3), (2, 7), (1, 6), (6, 1), (1, 1)])
def test_laplacian_oracle_matches_dense_difference_operator(height, width):
    L = difference_operator(height, width)
    p = np.random.default_rng(height * 10 + width).normal(size=(height * width, 4))
    got = build_oracles.apply_laplacian(p, height, width)
    assert np.max(np.abs(got - L.T @ (L @ p))) <= 1e-12


def test_duplicate_weight_columns_give_identical_rows():
    # Voxels crossed by the same set of links must image to exactly the same
    # value, so that a plateau stays a plateau for argmax_voxel.
    rng = np.random.default_rng(211)
    base = np.abs(random_system(rng, m=7, n=5))
    order = rng.permutation(np.repeat(np.arange(5), 9))
    A = base[:, order]
    rec = build_reconstructor(A, 4.0, regularizer="identity")
    for col in range(5):
        rows = rec.pi[order == col]
        assert all(np.array_equal(rows[0], row) for row in rows[1:])


def test_nan_weight_fails_loudly():
    grid = grid_of(3, 4)
    A = np.abs(random_system(np.random.default_rng(223), m=5, n=12))
    A[2, 7] = np.nan
    for regularizer in ("identity", "difference"):
        with pytest.raises(ReconstructionError):
            build_reconstructor(A, 2.0, regularizer=regularizer, grid=grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_names_its_link_before_any_grouping(monkeypatch, bad):
    def unreachable(*args):
        raise AssertionError("reached past the weight check")

    monkeypatch.setattr(imaging, "distinct_rows", unreachable)
    monkeypatch.setattr(np.linalg, "inv", unreachable)
    monkeypatch.setattr(np.linalg, "solve", unreachable)
    grid = grid_of(12, 12)
    A = np.abs(random_system(np.random.default_rng(227), m=150, n=144))
    A[[131, 140], 7] = bad
    for regularizer in ("identity", "difference"):
        with pytest.raises(ReconstructionError, match=r"weight row of link 131 is not finite"):
            build_reconstructor(A, 2.0, regularizer=regularizer, grid=grid)


def test_non_finite_row_of_a_weight_matrix_names_its_first_link():
    rows = np.abs(random_system(np.random.default_rng(229), m=3, n=12))
    rows[1, 4] = np.inf
    wm = WeightMatrix(rows=rows, groups=np.array([2, 0, 2, 1, 1, 0]), lam=0.5)
    with pytest.raises(ReconstructionError, match=r"weight row of link 3 is not finite"):
        build_reconstructor(wm, 2.0, regularizer="identity")


@pytest.mark.parametrize("groups", [[0, 1, 1], [0, 2, 0, 1, 3], [0, -1, 1, 2]])
def test_weight_groups_must_name_every_row_and_only_those(groups):
    rows = np.abs(random_system(np.random.default_rng(233), m=3, n=12))
    wm = WeightMatrix(rows=rows, groups=np.array(groups), lam=0.5)
    with pytest.raises(ValueError):
        build_reconstructor(wm, 2.0, regularizer="identity")


def test_identity_on_range_consistency():
    rng = np.random.default_rng(107)
    A = random_system(rng, m=8, n=10)
    alpha = 2.5
    rec = build_reconstructor(A, alpha, regularizer="identity")
    inv = np.linalg.inv(A.T @ A + alpha * np.eye(10))
    combined = rec.pi @ A + alpha * inv
    assert np.max(np.abs(combined - np.eye(10))) < 1e-6


def test_difference_operator_matches_loop_oracle():
    height, width = 3, 4
    L = difference_operator(height, width)
    assert L.shape == (height * (width - 1) + width * (height - 1), height * width)
    x = np.arange(height * width, dtype=float)
    diffs = L @ x
    expected = []
    for r in range(height):
        for c in range(width - 1):
            expected.append(x[r * width + c + 1] - x[r * width + c])
    for r in range(height - 1):
        for c in range(width):
            expected.append(x[(r + 1) * width + c] - x[r * width + c])
    assert diffs == pytest.approx(np.array(expected))


def test_alpha_shrinks_solution():
    rng = np.random.default_rng(109)
    A = random_system(rng, m=6, n=9)
    y = rng.normal(0, 1, size=6)
    norms = []
    for alpha in (1.0, 10.0, 100.0):
        rec = build_reconstructor(A, alpha, regularizer="identity")
        norms.append(float(np.linalg.norm(rec.pi @ y)))
    assert norms[0] > norms[1] > norms[2]


def test_builder_validations():
    A = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        build_reconstructor(A, alpha=0.0, regularizer="identity")
    with pytest.raises(ValueError):
        build_reconstructor(A, alpha=1.0, regularizer="fancy")
    with pytest.raises(ValueError):
        build_reconstructor(np.zeros((2, 3)), alpha=1.0, regularizer="identity")
    with pytest.raises(ValueError):
        build_reconstructor(A, alpha=1.0, regularizer="difference")  # no grid
    grid = build_grid((0, 0), 2.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        build_reconstructor(A, alpha=1.0, regularizer="difference", grid=grid)


def test_build_is_deterministic():
    rng = np.random.default_rng(113)
    A = random_system(rng)
    first = build_reconstructor(A, 5.0, regularizer="identity")
    second = build_reconstructor(A, 5.0, regularizer="identity")
    assert np.array_equal(first.pi, second.pi)


# ----------------------------------------------------------- reconstruct


def test_reconstruct_zero_is_zero():
    A = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
    rec = build_reconstructor(A, 1.0, regularizer="identity")
    frame = reconstruct(rec, np.zeros(2), time=7)
    assert frame.time == 7
    assert np.array_equal(frame.values, np.zeros(3))


def test_reconstruct_is_linear():
    rng = np.random.default_rng(127)
    A = random_system(rng, m=4, n=6)
    rec = build_reconstructor(A, 2.0, regularizer="identity")
    y1 = rng.normal(0, 1, 4)
    y2 = rng.normal(0, 1, 4)
    sum_frame = reconstruct(rec, y1 + 2.0 * y2)
    combo = reconstruct(rec, y1).values + 2.0 * reconstruct(rec, y2).values
    assert sum_frame.values == pytest.approx(combo, abs=1e-12)


def test_reconstruct_checks_length():
    A = np.array([[1.0, 0.0]])
    rec = build_reconstructor(A, 1.0, regularizer="identity")
    with pytest.raises(ValueError):
        reconstruct(rec, np.zeros(3))


def test_reconstructor_records_the_ellipse_it_was_built_for():
    layout = NetworkLayout([NodeSpec(0, 0.0, 1.0), NodeSpec(1, 4.0, 1.0)])
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.25)
    wm = build_weight_matrix(grid, layout, 0.8)
    assert build_reconstructor(wm, 1.0, regularizer="identity").lam == 0.8
    assert build_reconstructor(wm.entries, 1.0, regularizer="identity").lam is None


def test_single_link_activation_lands_in_support():
    layout = NetworkLayout([NodeSpec(0, 0.0, 1.0), NodeSpec(1, 4.0, 1.0)])
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.25)
    wm = build_weight_matrix(grid, layout, 0.8)
    rec = build_reconstructor(wm, 1.0, regularizer="identity")
    y = np.array([3.0, 3.0])
    frame = reconstruct(rec, y)
    x, yc = argmax_voxel(frame, grid)
    assert wm.entries[0, grid.voxel_index(int(yc / 0.25), int(x / 0.25))] > 0


def test_argmax_scale_invariance():
    rng = np.random.default_rng(131)
    A = random_system(rng, m=6, n=12)
    rec = build_reconstructor(A, 3.0, regularizer="identity")
    grid = build_grid((0.0, 0.0), 1.0, 0.75, 0.25)  # 4 x 3 = 12 voxels
    y = np.abs(rng.normal(0, 1, 6))
    f1 = reconstruct(rec, y)
    f2 = reconstruct(rec, 10.0 * y)
    assert argmax_voxel(f1, grid) == argmax_voxel(f2, grid)


# ---------------------------------------------------------------- argmax


def test_argmax_ties_take_plateau_centre():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    frame = ImageFrame(time=0, values=np.array([1.0, 1.0, 1.0, 1.0]))
    assert argmax_voxel(frame, grid) == (0.5, 0.5)
    frame = ImageFrame(time=0, values=np.array([2.0, 0.0, 0.0, 2.0]))
    assert argmax_voxel(frame, grid) == (0.5, 0.5)
    frame = ImageFrame(time=0, values=np.array([0.0, 3.0, 1.0, 3.0]))
    assert argmax_voxel(frame, grid) == (0.75, 0.5)


def test_argmax_finds_peak():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    frame = ImageFrame(time=0, values=np.array([0.0, 0.0, 0.0, 2.0]))
    assert argmax_voxel(frame, grid) == (0.75, 0.75)


def test_argmax_scan_oracle():
    rng = np.random.default_rng(137)
    grid = build_grid((0.0, 0.0), 2.0, 1.5, 0.25)
    values = rng.normal(0, 1, grid.num_voxels)
    frame = ImageFrame(time=0, values=values)
    best = max(range(grid.num_voxels), key=lambda i: (values[i], -i))
    assert argmax_voxel(frame, grid) == grid.voxel_center(best)


def test_batched_argmax_matches_the_per_frame_scan():
    rng = np.random.default_rng(149)
    grid = build_grid((-1.0, 0.5), 3.0, 2.0, 0.1)
    images = rng.normal(0.0, 1.0, (40, grid.num_voxels))
    for row, size in enumerate((2, 3, 8, 9, 17, 130, 600)):
        plateau = rng.choice(grid.num_voxels, size, replace=False)
        images[row, plateau] = images[row].max() + 1.0
    images[10, 7] = np.nan
    images[11, [3, 9]] = np.nan
    images[12] = 2.5
    positions = argmax_positions(images, grid)
    for values, position in zip(images, positions):
        frame = ImageFrame(time=0, values=values)
        expected = eval_oracles.argmax_voxel(frame, grid)
        assert tuple(position) == expected
        assert argmax_voxel(frame, grid) == expected
    with pytest.raises(ValueError, match="frame size"):
        argmax_positions(images[:, :-1], grid)


PLATEAU_SIZES = [*range(2, 18), 31, 32, 33, 127, 128, 129, 255, 256, 257, 500, 1024, 1025, 1500]


def test_plateau_means_group_rows_by_tie_count():
    # Two rows per plateau size, so every tie count is a group of rows; the
    # plateau mean must equal np.mean of the plateau's centres bit for bit.
    rng = np.random.default_rng(157)
    grid = build_grid((-2.0, 0.7), 4.0, 4.0, 0.1)  # 1,600 voxels
    sizes = [size for size in PLATEAU_SIZES for _ in range(2)]
    images = rng.normal(0.0, 1.0, (len(sizes) + 3, grid.num_voxels))
    for row, size in enumerate(sizes):
        plateau = rng.choice(grid.num_voxels, size, replace=False)
        images[row, plateau] = images[row].max() + 1.0
    images[-3, 11] = np.nan  # a NaN row takes argmax's first NaN
    images[-2] = 0.25  # a flat row means every centre
    positions = argmax_positions(images, grid)
    assert np.array_equal(positions, eval_oracles.argmax_positions(images, grid))
    centres = grid.centers()
    for row, values in enumerate(images):
        tied = centres[values == values.max()]
        if len(tied) > 1:
            assert positions[row].tolist() == [np.mean(tied[:, 0]), np.mean(tied[:, 1])]
    assert positions[-3].tolist() == list(grid.voxel_center(11))
    assert positions[-2].tolist() == [np.mean(centres[:, 0]), np.mean(centres[:, 1])]


def test_a_nan_statistic_on_one_link_of_a_pair_gives_a_nan_image():
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    wm = build_weight_matrix(grid, ring_layout(7, 2.9, (3.0, 3.0)), 0.5)
    rec = build_reconstructor(wm, 25.0, "difference", grid=grid)
    stats = np.random.default_rng(37).normal(size=(3, 42))
    stats[1, 5] = np.nan
    images = reconstruct_images(rec, stats)
    assert np.isnan(images[1]).all() and np.isfinite(images[[0, 2]]).all()
    assert np.isnan(reconstruct(rec, stats[1]).values).all()


def test_reconstruct_matches_its_row_of_the_batch_on_a_ring():
    # Both take the same group means, bit for bit; the products differ only
    # in their rounding.
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    wm = build_weight_matrix(grid, ring_layout(9, 2.9, (3.0, 3.0)), 0.5)
    rec = build_reconstructor(wm, 25.0, "difference", grid=grid)
    stats = np.random.default_rng(41).normal(size=(30, 72))
    means = imaging._group_means(rec, stats)
    assert all(imaging._group_means(rec, y).tobytes() == row.tobytes()
               for y, row in zip(stats, means))
    images = reconstruct_images(rec, stats)
    for y, image in zip(stats, images):
        assert np.max(np.abs(reconstruct(rec, y).values - image)) <= 1e-12
    per_link = stats @ build_oracles.expand(rec).T
    assert np.max(np.abs(images - per_link)) <= 1e-12


def test_batched_images_match_per_tick_products():
    rng = np.random.default_rng(151)
    A = np.abs(rng.normal(0.0, 1.0, (12, 30)))
    rec = build_reconstructor(A, 2.0, "identity")
    stats = rng.normal(0.0, 1.0, (25, 12))
    images = reconstruct_images(rec, stats)
    per_tick = np.array([reconstruct(rec, y).values for y in stats])
    assert np.max(np.abs(images - per_tick)) <= 1e-12
    with pytest.raises(ValueError, match="expected 12 link statistics"):
        reconstruct_images(rec, stats[:, :-1])
    with pytest.raises(ValueError, match="expected 12 link statistics"):
        reconstruct(rec, stats)


# -------------------------------------------------------------- exports


def test_frame_csv_layout():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    frame = ImageFrame(time=0, values=np.array([0.0, 1.0, 2.0, 3.0]))
    text = frame_to_csv(frame, grid).decode()
    assert text == "0.0,1.0\n2.0,3.0\n"


def test_frame_pgm_min_max_scaling():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    frame = ImageFrame(time=0, values=np.array([0.0, 1.0, 2.0, 3.0]))
    data = frame_to_pgm(frame, grid)
    assert data.startswith(b"P5 2 2 255\n")
    # Northern row (voxels 2, 3) comes first in the image.
    assert list(data[-4:]) == [170, 255, 0, 85]


def test_frame_pgm_flat_frame_is_black():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    frame = ImageFrame(time=0, values=np.full(4, 2.5))
    data = frame_to_pgm(frame, grid)
    assert list(data[-4:]) == [0, 0, 0, 0]


def test_frame_exports_are_deterministic():
    rng = np.random.default_rng(139)
    grid = build_grid((0.0, 0.0), 1.5, 1.0, 0.25)
    values = rng.normal(0, 1, grid.num_voxels)
    frame = ImageFrame(time=3, values=values)
    assert frame_to_csv(frame, grid) == frame_to_csv(frame, grid)
    assert frame_to_pgm(frame, grid) == frame_to_pgm(frame, grid)
