"""Voxel grids, node layouts, and the elliptical link weight model."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TAU = 2.0 * math.pi
# Switched-beam antenna directions per node, evenly spaced over the circle.
NUM_DIRECTIONS = 6


class LayoutError(ValueError):
    """Raised for malformed layouts."""


class PatternPair(NamedTuple):
    """A transmit/receive antenna direction pair. Directions are 1-based."""

    tx_direction: int
    rx_direction: int


# Every pattern pair in lexicographic order. Selections name a pair by its
# index here, 6 (tx_direction - 1) + (rx_direction - 1).
PATTERN_PAIRS = tuple(
    PatternPair(t, r)
    for t in range(1, NUM_DIRECTIONS + 1)
    for r in range(1, NUM_DIRECTIONS + 1)
)


@dataclass(frozen=True)
class NodeSpec:
    """One radio node: position in metres, antenna zero bearing in radians."""

    id: int
    x: float
    y: float
    antenna_zero_bearing: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class VoxelGrid:
    """Rectangular voxel grid over the area of interest.

    ``origin`` is the south-west corner. Voxel indices are row-major
    (index = row * width_voxels + col) with rows growing northward.
    """

    origin: tuple[float, float]
    width_voxels: int
    height_voxels: int
    voxel_width: float

    def __post_init__(self) -> None:
        if self.width_voxels < 1 or self.height_voxels < 1:
            raise ValueError("grid must contain at least one voxel")
        if self.voxel_width <= 0:
            raise ValueError("voxel_width must be positive")

    @property
    def num_voxels(self) -> int:
        return self.width_voxels * self.height_voxels

    @property
    def width_m(self) -> float:
        return self.width_voxels * self.voxel_width

    @property
    def height_m(self) -> float:
        return self.height_voxels * self.voxel_width

    def voxel_rowcol(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.num_voxels:
            raise ValueError(f"voxel index {index} outside [0, {self.num_voxels})")
        return divmod(index, self.width_voxels)

    def voxel_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.height_voxels and 0 <= col < self.width_voxels):
            raise ValueError(f"voxel (row={row}, col={col}) outside grid")
        return row * self.width_voxels + col

    def voxel_center(self, index: int) -> tuple[float, float]:
        row, col = self.voxel_rowcol(index)
        x0, y0 = self.origin
        w = self.voxel_width
        return (x0 + (col + 0.5) * w, y0 + (row + 0.5) * w)

    def centers(self) -> np.ndarray:
        """All voxel centers as an (N, 2) array in index order."""
        x0, y0 = self.origin
        w = self.voxel_width
        cols = np.arange(self.width_voxels)
        rows = np.arange(self.height_voxels)
        xs = x0 + (cols + 0.5) * w
        ys = y0 + (rows + 0.5) * w
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def contains(self, point: Sequence[float]) -> bool:
        x0, y0 = self.origin
        return (x0 <= point[0] <= x0 + self.width_m) and (
            y0 <= point[1] <= y0 + self.height_m
        )


def build_grid(
    origin: tuple[float, float],
    width_m: float,
    height_m: float,
    voxel_width: float,
) -> VoxelGrid:
    """Cover a width_m x height_m area with square voxels of side voxel_width.

    Voxel counts round up so the grid never under-covers the requested area.
    """
    if width_m <= 0 or height_m <= 0 or voxel_width <= 0:
        raise ValueError("grid dimensions and voxel width must be positive")
    # Guard against float noise pushing an exact multiple over the next integer.
    width_voxels = math.ceil(width_m / voxel_width - 1e-9)
    height_voxels = math.ceil(height_m / voxel_width - 1e-9)
    return VoxelGrid(origin, width_voxels, height_voxels, voxel_width)


class NetworkLayout:
    """A set of nodes plus the derived list of directed links.

    Links are every ordered pair of distinct nodes, enumerated in node order:
    (n0->n1, n0->n2, ..., n1->n0, n1->n2, ...). Weight groups and link
    statistic vectors follow this order. Equal node lists make equal layouts.
    """

    def __init__(self, nodes: Sequence[NodeSpec]):
        if len(nodes) < 2:
            raise LayoutError("a layout needs at least two nodes")
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise LayoutError("duplicate node ids in layout")
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if a.x == b.x and a.y == b.y:
                    raise LayoutError(
                        f"nodes {a.id} and {b.id} share position ({a.x}, {a.y})"
                    )
        self.nodes: list[NodeSpec] = list(nodes)
        self._by_id = {n.id: n for n in nodes}
        self.links: list[tuple[int, int]] = [
            (a.id, b.id) for a in nodes for b in nodes if a.id != b.id
        ]
        self._link_index = {link: i for i, link in enumerate(self.links)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkLayout):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(tuple(self.nodes))

    @property
    def num_links(self) -> int:
        return len(self.links)

    def node(self, node_id: int) -> NodeSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise LayoutError(f"no node with id {node_id}") from None

    def link_index(self, tx_id: int, rx_id: int) -> int:
        try:
            return self._link_index[(tx_id, rx_id)]
        except KeyError:
            raise LayoutError(f"no link {tx_id}->{rx_id} in layout") from None

    def link_distance(self, tx_id: int, rx_id: int) -> float:
        a, b = self.node(tx_id), self.node(rx_id)
        return math.hypot(b.x - a.x, b.y - a.y)


def direction_bearing(node: NodeSpec, direction: int) -> float:
    """Absolute bearing (radians) of one antenna direction of a node."""
    if not 1 <= direction <= NUM_DIRECTIONS:
        raise ValueError(f"direction {direction} outside [1, {NUM_DIRECTIONS}]")
    return node.antenna_zero_bearing + (direction - 1) * TAU / NUM_DIRECTIONS


def angle_to_link(node: NodeSpec, direction: int, other: NodeSpec) -> float:
    """Magnitude of the angle between an antenna direction and the line to
    the other node, wrapped to [0, pi]."""
    bearing = direction_bearing(node, direction)
    to_other = math.atan2(other.y - node.y, other.x - node.x)
    return abs(math.remainder(bearing - to_other, TAU))


def ellipse_contains(
    p1: Sequence[float],
    p2: Sequence[float],
    point: Sequence[float],
    lam: float,
) -> bool:
    """Strict elliptical membership test with foci p1, p2 and excess lam."""
    d = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
    d1 = math.hypot(point[0] - p1[0], point[1] - p1[1])
    d2 = math.hypot(point[0] - p2[0], point[1] - p2[1])
    return d1 + d2 < d + lam


@dataclass(frozen=True)
class WeightMatrix:
    """Link-to-voxel weights, each distinct row once: link l's row is
    rows[groups[l]] (NetworkLayout.links order); rows are in first-seen order."""

    rows: np.ndarray
    groups: np.ndarray
    lam: float

    @property
    def entries(self) -> np.ndarray:
        """The per-link (links, voxels) matrix, expanded anew on each access."""
        return self.rows[self.groups]


def _key_multipliers(width: int) -> np.ndarray:
    """Fixed odd uint64 multipliers, one per column; numpy.random is a slow first import."""
    return np.frombuffer(random.Random(0).randbytes(8 * width), dtype=np.uint64) | np.uint64(1)


def distinct_rows(fill, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, groups) of `count` float64 rows of `width` entries, each written
    by fill(k, out) into the next free row: rows holds each distinct row once,
    in order of first appearance, and groups[k] is row k's index in it. A key,
    the wrapping dot product of the row's bits with `_key_multipliers`,
    proposes a group, which the row joins only when equal entry for entry.
    rows starts with room for half the rows (the elliptical model's a->b, b->a
    pairs) and one more and is resized in place: fill keeps no view of out."""
    multipliers, candidates, distinct = _key_multipliers(width), {}, 0
    rows, groups = np.empty((count // 2 + 1, width)), np.empty(count, dtype=np.intp)
    for k in range(count):
        if distinct == len(rows):
            rows.resize((min(2 * distinct, count), width), refcheck=False)
        fill(k, rows[distinct])  # no view of rows is kept, as it is resized in place
        key = int(rows[distinct].view(np.uint64).dot(multipliers))
        for group in candidates.get(key, ()):
            if (rows[distinct] == rows[group]).all():
                break
        else:
            group, distinct = distinct, distinct + 1
            candidates.setdefault(key, []).append(group)
        groups[k] = group
    rows.resize((distinct, width), refcheck=False)
    return rows, groups


def build_weight_matrix(grid: VoxelGrid, layout: NetworkLayout, lam: float) -> WeightMatrix:
    """Weight matrix of the elliptical shadowing model.

    A voxel contributes to a link when the sum of the distances from its
    center to the two nodes is strictly less than the node distance plus lam;
    contributing voxels weigh 1/sqrt(link distance). Each link's row is
    computed alone and kept only if new (`distinct_rows`).
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    x, y = grid.centers().T
    to_node = {n.id: np.hypot(x - n.x, y - n.y) for n in layout.nodes}

    def fill(link, out):
        a, b = layout.links[link]
        d = layout.link_distance(a, b)
        np.add(to_node[a], to_node[b], out)
        np.multiply(out < d + lam, 1.0 / math.sqrt(d), out)

    return WeightMatrix(*distinct_rows(fill, layout.num_links, grid.num_voxels), lam=lam)


def segments_intersect(
    p1: Sequence[float],
    p2: Sequence[float],
    q1: Sequence[float],
    q2: Sequence[float],
) -> bool:
    """True when segment p1-p2 intersects segment q1-q2 (touching counts)."""

    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c) -> bool:
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)
    if o1 == 0 and on_segment(p1, p2, q1):
        return True
    if o2 == 0 and on_segment(p1, p2, q2):
        return True
    if o3 == 0 and on_segment(q1, q2, p1):
        return True
    return o4 == 0 and on_segment(q1, q2, p2)

