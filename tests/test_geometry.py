import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rti import geometry
from rti.geometry import (
    LayoutError,
    NetworkLayout,
    NodeSpec,
    PatternPair,
    angle_to_link,
    build_grid,
    build_weight_matrix,
    direction_bearing,
    distinct_rows,
    ellipse_contains,
    segments_intersect,
)
from rti.imaging import build_reconstructor
from rti.presets import los_7node, nlos_7node, ring_layout
import build_oracles


def brute_force_weights(grid, layout, lam):
    """Independent per-voxel scan of the elliptical weight model."""
    rows = []
    for tx_id, rx_id in layout.links:
        tx, rx = layout.node(tx_id), layout.node(rx_id)
        d = math.dist((tx.x, tx.y), (rx.x, rx.y))
        row = []
        for index in range(grid.num_voxels):
            c = grid.voxel_center(index)
            d1 = math.dist(c, (tx.x, tx.y))
            d2 = math.dist(c, (rx.x, rx.y))
            row.append(1.0 / math.sqrt(d) if d1 + d2 < d + lam else 0.0)
        rows.append(row)
    return np.array(rows)


# ---------------------------------------------------------------- grids


def test_build_grid_counts():
    grid = build_grid((0.0, 0.0), 7.0, 7.0, 0.2)
    assert (grid.width_voxels, grid.height_voxels) == (35, 35)
    assert grid.num_voxels == 1225


def test_build_grid_rounds_up():
    grid = build_grid((0.0, 0.0), 1.0, 0.5, 0.5)
    assert (grid.width_voxels, grid.height_voxels) == (2, 1)
    assert grid.voxel_center(0) == (0.25, 0.25)
    assert grid.voxel_center(1) == (0.75, 0.25)


def test_build_grid_negative_origin_centers():
    grid = build_grid((-1.0, -1.0), 2.0, 2.0, 1.0)
    assert grid.num_voxels == 4
    assert grid.voxel_center(0) == (-0.5, -0.5)
    assert grid.voxel_center(3) == (0.5, 0.5)


def test_build_grid_inexact_division_rounds_up():
    grid = build_grid((0.0, 0.0), 1.1, 1.0, 0.5)
    assert (grid.width_voxels, grid.height_voxels) == (3, 2)


def test_build_grid_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_grid((0.0, 0.0), 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        build_grid((0.0, 0.0), 1.0, 1.0, -0.1)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_voxel_index_mappings_are_inverse(width, height):
    grid = build_grid((0.0, 0.0), width * 0.25, height * 0.25, 0.25)
    for index in (0, grid.num_voxels // 2, grid.num_voxels - 1):
        row, col = grid.voxel_rowcol(index)
        assert grid.voxel_index(row, col) == index
        cx, cy = grid.voxel_center(index)
        assert math.isclose(cx, (col + 0.5) * 0.25)
        assert math.isclose(cy, (row + 0.5) * 0.25)


def test_voxel_index_out_of_range():
    grid = build_grid((0.0, 0.0), 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        grid.voxel_rowcol(4)
    with pytest.raises(ValueError):
        grid.voxel_index(2, 0)


# ---------------------------------------------------------------- layouts


def test_layout_rejects_coincident_nodes():
    with pytest.raises(LayoutError):
        NetworkLayout([NodeSpec(0, 1.0, 1.0), NodeSpec(1, 1.0, 1.0)])


def test_layout_rejects_duplicate_ids():
    with pytest.raises(LayoutError):
        NetworkLayout([NodeSpec(3, 0.0, 0.0), NodeSpec(3, 1.0, 0.0)])


def test_layouts_are_equal_by_their_nodes():
    nodes = [NodeSpec(0, 0.0, 0.0), NodeSpec(1, 1.0, 0.0, 0.5), NodeSpec(2, 0.0, 1.0)]
    layout = NetworkLayout(nodes)
    same = NetworkLayout([NodeSpec(n.id, n.x, n.y, n.antenna_zero_bearing) for n in nodes])
    assert layout == same and hash(layout) == hash(same)
    assert {layout: 1}[same] == 1
    assert layout != NetworkLayout(nodes[::-1])  # the order fixes the links
    assert layout != NetworkLayout([*nodes[:2], NodeSpec(2, 0.0, 1.0, 0.1)])
    assert layout != NetworkLayout(nodes[:2])
    assert layout != nodes


def test_layout_link_enumeration():
    layout = NetworkLayout(
        [NodeSpec(0, 0.0, 0.0), NodeSpec(1, 1.0, 0.0), NodeSpec(2, 0.0, 1.0)]
    )
    assert layout.links == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert layout.num_links == 6
    assert layout.link_index(1, 2) == 3


# ---------------------------------------------------------------- angles


def test_angle_to_link_aligned():
    node = NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=0.0)
    other = NodeSpec(1, 1.0, 0.0)
    assert angle_to_link(node, 1, other) == pytest.approx(0.0, abs=1e-12)
    assert angle_to_link(node, 4, other) == pytest.approx(math.pi, abs=1e-12)
    assert angle_to_link(node, 2, other) == pytest.approx(math.pi / 3, abs=1e-12)


def test_angle_to_link_perpendicular():
    node = NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=0.0)
    other = NodeSpec(1, 0.0, 1.0)
    assert angle_to_link(node, 1, other) == pytest.approx(math.pi / 2, abs=1e-12)


def test_direction_bearing_validates_range():
    node = NodeSpec(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        direction_bearing(node, 0)
    with pytest.raises(ValueError):
        direction_bearing(node, 7)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 1e-3),
)
def test_angle_magnitude_range(direction, bearing, offset):
    node = NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=bearing)
    other = NodeSpec(1, offset, offset)
    angle = angle_to_link(node, direction, other)
    assert 0.0 <= angle <= math.pi + 1e-12


# ---------------------------------------------------------------- weights


def two_node_layout():
    return NetworkLayout([NodeSpec(0, 0.0, 1.0), NodeSpec(1, 4.0, 1.0)])


def test_weight_matrix_matches_frozen_example():
    # 4 m x 2 m area, 0.5 m voxels, nodes on the long axis, lam = 0.5.
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.5)
    layout = two_node_layout()
    wm = build_weight_matrix(grid, layout, 0.5)
    assert wm.entries.shape == (2, 32)
    nonzero = wm.entries[0][wm.entries[0] > 0]
    # Frozen from the brute-force oracle: 28 voxels inside, weight 1/sqrt(4).
    assert nonzero.size == 28
    assert np.allclose(nonzero, 0.5)
    # Far corners stay outside the ellipse.
    for corner in (0, 7, 24, 31):
        assert wm.entries[0, corner] == 0.0


def test_weight_matrix_midpoint_value():
    layout = NetworkLayout([NodeSpec(0, 0.0, 0.5), NodeSpec(1, 3.0, 0.5)])
    grid = build_grid((1.0, 0.0), 1.0, 1.0, 1.0)  # single voxel centred on the line
    wm = build_weight_matrix(grid, layout, 0.1)
    assert wm.entries[0, 0] == pytest.approx(1.0 / math.sqrt(3.0))


def test_weight_matrix_zero_lambda_empty():
    layout = two_node_layout()
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.5)
    wm = build_weight_matrix(grid, layout, 0.0)
    # Strict inequality: on- or off-axis voxels all fail d1 + d2 < d.
    assert np.count_nonzero(wm.entries) == 0


def test_weight_matrix_rejects_negative_lambda():
    with pytest.raises(ValueError):
        build_weight_matrix(build_grid((0, 0), 1, 1, 0.5), two_node_layout(), -1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_weight_matrix_rejects_a_non_finite_lambda(lam):
    # NaN used to give an all-zero matrix, and inf a matrix with lam=inf.
    with pytest.raises(ValueError, match=r"lam must be finite and >= 0, got -?(nan|inf)"):
        build_weight_matrix(build_grid((0, 0), 1, 1, 0.5), two_node_layout(), lam)


def test_weight_matrix_equals_brute_force_random_layouts():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n_nodes = int(rng.integers(2, 6))
        nodes = [
            NodeSpec(i, float(rng.uniform(0, 5)), float(rng.uniform(0, 4)))
            for i in range(n_nodes)
        ]
        try:
            layout = NetworkLayout(nodes)
        except LayoutError:
            continue
        grid = build_grid((0.0, 0.0), 5.0, 4.0, 0.5)
        lam = float(rng.uniform(0.0, 2.0))
        wm = build_weight_matrix(grid, layout, lam)
        expected = brute_force_weights(grid, layout, lam)
        assert np.array_equal(wm.entries, expected)


def weight_cases():
    los, nlos = los_7node(0)[0], nlos_7node(0)[0]
    ring_grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
    ring = ring_layout(20, 2.9, (3.0, 3.0))
    scattered = NetworkLayout(
        [NodeSpec(7, 0.2, 0.3), NodeSpec(3, 2.9, 0.1), NodeSpec(42, 1.4, 2.7), NodeSpec(-1, 0.05, 1.9)]
    )
    return {
        "los_7node": (los.grid, los.layout, 0.5),
        "nlos_7node": (nlos.grid, nlos.layout, 1.5),
        "ring20": (ring_grid, ring, 0.5),
        "ring20-lam0": (ring_grid, ring, 0.0),
        "los_7node-lam0": (los.grid, los.layout, 0.0),
        "noncontiguous-ids": (build_grid((0.0, 0.0), 3.0, 3.0, 0.25), scattered, 0.4),
    }


@pytest.mark.parametrize("case", weight_cases())
def test_weight_matrix_equals_per_link_loop(case):
    grid, layout, lam = weight_cases()[case]
    wm = build_weight_matrix(grid, layout, lam)
    expected = build_oracles.build_weight_matrix(grid, layout, lam)
    assert wm.entries.dtype == np.float64 and wm.entries.flags.c_contiguous
    assert np.array_equal(wm.entries, expected)
    assert np.array_equal(np.signbit(wm.entries), np.signbit(expected))
    assert wm.entries.tobytes() == build_oracles.build_weight_matrix_at_once(
        grid, layout, lam
    ).tobytes()
    assert wm.lam == lam
    # The stored rows are the distinct ones, each once, in order of first
    # appearance, as the np.unique oracle groups them.
    first, groups = build_oracles.group_rows(expected)
    assert wm.rows.dtype == np.float64 and wm.rows.flags.c_contiguous
    assert np.array_equal(wm.groups, groups)
    assert wm.rows.tobytes() == expected[first].tobytes()


def test_weight_matrix_peak_memory_on_the_ring20_grid():
    # The rows are filled one link at a time into the next free row, so the
    # build holds the G distinct rows, one spare row, the node-to-voxel
    # distances (20 rows) and the key multipliers (1 row): less than one
    # 64-row block besides. The whole-array expression peaked at 22.5 MB;
    # holding all L rows was bounded by 12.8 MB (L + 64 rows), and this
    # bound is 7.3 MB (G + 64 rows).
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
    layout = ring_layout(20, 2.9, (3.0, 3.0))
    tracemalloc.start()
    try:
        wm = build_weight_matrix(grid, layout, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wm.rows.shape == (190, grid.num_voxels)
    assert peak <= wm.rows.nbytes + 64 * grid.num_voxels * 8


def test_weight_matrix_lambda_monotonicity():
    layout = two_node_layout()
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.25)
    smaller = build_weight_matrix(grid, layout, 0.4).entries != 0
    larger = build_weight_matrix(grid, layout, 1.2).entries != 0
    assert np.all(larger[smaller])  # support only grows with lam


def test_weight_matrix_direction_symmetry():
    layout = NetworkLayout(
        [NodeSpec(0, 0.2, 0.3), NodeSpec(1, 3.1, 1.7), NodeSpec(2, 1.0, 2.4)]
    )
    grid = build_grid((0.0, 0.0), 4.0, 3.0, 0.5)
    wm = build_weight_matrix(grid, layout, 1.0)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            up = wm.entries[layout.link_index(layout.nodes[a].id, layout.nodes[b].id)]
            down = wm.entries[layout.link_index(layout.nodes[b].id, layout.nodes[a].id)]
            assert np.array_equal(up, down)


# ---------------------------------------------------------------- grouping


def group(A):
    """`distinct_rows` of the rows of A."""
    return distinct_rows(lambda k, out: np.copyto(out, A[k]), *A.shape)


def repeated_rows(rng, counts, n):
    """Rows of |normal| weights repeated counts[g] times, with two all-zero
    rows among them, in a shuffled order."""
    base = np.abs(rng.normal(size=(len(counts), n)))
    A = np.vstack([np.repeat(base, counts, axis=0), np.zeros((2, n))])
    return A[rng.permutation(len(A))]


@pytest.mark.parametrize("counts", [[1], [1] * 9, [2] * 6, [5, 1, 4, 3, 2], [11]])
def test_distinct_rows_match_the_sorting_oracle(counts):
    # All distinct rows outgrow the half the store starts with; a few
    # repeated ones leave it to shrink.
    A = repeated_rows(np.random.default_rng(len(counts)), counts, 7)
    rows, groups = group(A)
    first, expected = build_oracles.group_rows(A)
    assert np.array_equal(groups, expected)
    assert rows.flags.c_contiguous and rows.flags.owndata
    assert rows.tobytes() == A[first].tobytes()


def test_opposite_links_of_a_ring_share_a_group():
    layout = ring_layout(7, 2.9, (3.0, 3.0))
    wm = build_weight_matrix(build_grid((0.0, 0.0), 6.0, 6.0, 0.2), layout, 0.5)
    assert len(wm.groups) == 42 and len(wm.rows) == 21
    # Groups are numbered in order of first appearance.
    assert wm.groups[:2].tolist() == [0, 1]
    assert np.all(np.diff(np.unique(wm.groups, return_index=True)[1]) > 0)
    index = {link: l for l, link in enumerate(layout.links)}
    for (a, b), group_ in zip(layout.links, wm.groups):
        assert wm.groups[index[(b, a)]] == group_
    rec = build_reconstructor(wm, 25.0, "identity")
    assert rec.distinct_rows == 21 and np.array_equal(rec.groups, wm.groups)


def test_rows_differing_in_their_last_bit_are_not_merged():
    A = np.repeat(np.abs(np.random.default_rng(29).normal(size=(3, 12))), 2, axis=0)
    A[3, 5] = np.nextafter(A[3, 5], np.inf)
    rows, groups = group(A)
    assert groups.tolist() == [0, 0, 1, 2, 3, 3]
    assert rows.tobytes() == A[[0, 2, 3, 4]].tobytes()
    rec = build_reconstructor(A, 2.0, regularizer="identity")
    assert rec.groups.tolist() == [0, 0, 1, 2, 3, 3]
    expected = np.linalg.inv(A.T @ A + 2.0 * np.eye(12)) @ A.T
    assert np.max(np.abs(build_oracles.expand(rec) - expected)) <= 1e-10


def test_all_zero_rows_merge():
    A = repeated_rows(np.random.default_rng(37), [1, 2], 5)
    rows, groups = group(A)
    zero = np.flatnonzero(~A.any(axis=1))
    assert len(rows) == 3 and len(zero) == 2 and groups[zero[0]] == groups[zero[1]]
    # With lam = 0 every weight row is zero: one row for all 42 links.
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    wm = build_weight_matrix(grid, ring_layout(7, 2.9, (3.0, 3.0)), 0.0)
    assert wm.rows.shape == (1, grid.num_voxels) and not wm.rows.any()
    assert wm.groups.tolist() == [0] * 42


@pytest.mark.parametrize("regularizer", ["identity", "difference"])
def test_rows_whose_keys_collide_are_not_merged(monkeypatch, regularizer):
    grid = build_grid((0.0, 0.0), 2.0, 1.5, 0.5)  # 3 x 4 voxels
    A = repeated_rows(np.random.default_rng(31), [2, 1, 3, 2], 12)
    rec = build_reconstructor(A, 3.0, regularizer=regularizer, grid=grid)
    ring_grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    wm = build_weight_matrix(ring_grid, ring_layout(7, 2.9, (3.0, 3.0)), 0.5)
    widths = []

    def colliding(width):
        widths.append(width)
        return np.zeros(width, np.uint64)

    monkeypatch.setattr(geometry, "_key_multipliers", colliding)
    collided = build_reconstructor(A, 3.0, regularizer=regularizer, grid=grid)
    assert widths == [12]
    assert collided.groups.tolist() == rec.groups.tolist()
    assert collided.pi.tobytes() == rec.pi.tobytes()
    assert collided.residual == rec.residual
    same = build_weight_matrix(ring_grid, ring_layout(7, 2.9, (3.0, 3.0)), 0.5)
    assert widths == [12, ring_grid.num_voxels]
    assert same.rows.tobytes() == wm.rows.tobytes()
    assert np.array_equal(same.groups, wm.groups)


def test_perpendicular_band_is_covered():
    # Voxels whose centre projects onto the segment interior and sits at
    # perpendicular distance p are inside whenever lam > 2p.
    layout = two_node_layout()
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.25)
    lam = 1.0
    wm = build_weight_matrix(grid, layout, lam)
    row = wm.entries[0]
    for index in range(grid.num_voxels):
        cx, cy = grid.voxel_center(index)
        if 0.0 < cx < 4.0 and abs(cy - 1.0) < lam / 2:
            assert row[index] > 0.0


def test_ellipse_contains_matches_weight_support():
    layout = two_node_layout()
    grid = build_grid((0.0, 0.0), 4.0, 2.0, 0.5)
    lam = 0.7
    wm = build_weight_matrix(grid, layout, lam)
    tx, rx = layout.nodes[0], layout.nodes[1]
    for index in range(grid.num_voxels):
        inside = ellipse_contains(tx.position, rx.position, grid.voxel_center(index), lam)
        assert inside == (wm.entries[0, index] > 0.0)


# ---------------------------------------------------------------- segments


def test_segments_intersect_cases():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 5))  # endpoint touch
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))  # collinear overlap
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))  # collinear apart


def test_pattern_pair_ordering_is_lexicographic():
    pairs = [PatternPair(2, 1), PatternPair(1, 3), PatternPair(1, 2)]
    assert sorted(pairs) == [PatternPair(1, 2), PatternPair(1, 3), PatternPair(2, 1)]
