"""Grid masks for the three nested regions used by the optimizer.

The optimizer reasons about three regions at once: the convex hull of the
points sampled so far (``tilde``), a uniformly enlarged copy of that hull
(``hat``), and the whole domain (``global``).  Each region is represented as
a boolean mask over the points of a :class:`~pacsbo.kernel_gp.GridDomain`,
together with enough geometry to support enlargement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel_gp import GridDomain, SampleSet

BOUNDARY_TOL = 1e-12
ENLARGEMENT = 1.1  # homothety ratio of the hat region about the hull

# geometry kinds carried by a mask:
#   ("polygon", vertices)           2-D convex polygon, CCW vertex array (m, 2)
#   ("box", lows, highs)            axis-aligned box, any dimension
Geometry = tuple


@dataclass(frozen=True)
class DomainMask:
    """Immutable membership mask over the points of a grid."""

    grid: GridDomain
    member: np.ndarray  # bool, shape (num_points,)
    label: str  # "tilde" | "hat" | "global"
    geometry: Geometry = field(compare=False)

    def __post_init__(self):
        member = np.asarray(self.member, dtype=bool)
        if member.shape != (self.grid.num_points,):
            raise ValueError(
                f"mask length {member.shape} does not match grid "
                f"({self.grid.num_points} points)"
            )
        if not member.any():
            raise ValueError("empty mask")
        member = member.copy()
        member.setflags(write=False)
        object.__setattr__(self, "member", member)
        if self.label not in ("tilde", "hat", "global"):
            raise ValueError(f"unknown mask label {self.label!r}")

    @property
    def count(self) -> int:
        return int(self.member.sum())

    def indices(self) -> np.ndarray:
        """Grid indices of the member points."""
        return np.flatnonzero(self.member)


def global_mask(grid: GridDomain) -> DomainMask:
    full = np.ones(grid.num_points, dtype=bool)
    box = (np.zeros(grid.dim), np.ones(grid.dim))
    return DomainMask(grid, full, "global", ("box",) + box)


def _box_mask(grid: GridDomain, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    inside = np.ones(grid.num_points, dtype=bool)
    for d in range(grid.dim):
        col = grid.points[:, d]
        inside &= (col >= lows[d] - BOUNDARY_TOL) & (col <= highs[d] + BOUNDARY_TOL)
    return inside


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points, CCW vertex order (Andrew's monotone chain)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]
    # deduplicate while keeping order
    keep = np.ones(len(p), dtype=bool)
    keep[1:] = np.any(np.diff(p, axis=0) != 0, axis=1)
    p = p[keep]
    if len(p) == 1:
        return p

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for q in p:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper = []
    for q in p[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return np.array(lower[:-1] + upper[:-1])


def _polygon_mask(grid: GridDomain, vertices: np.ndarray) -> np.ndarray:
    """Points of the grid inside or on a CCW convex polygon."""
    inside = np.ones(grid.num_points, dtype=bool)
    m = len(vertices)
    for k in range(m):
        a = vertices[k]
        b = vertices[(k + 1) % m]
        edge = b - a
        rel = grid.points - a
        cross = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        inside &= cross >= -BOUNDARY_TOL
    return inside


def convex_hull_mask(samples: SampleSet) -> DomainMask:
    """Mask of grid points inside or on the convex hull of the sample locations.

    In one dimension the hull is the box (closed interval) spanned by the
    samples. In two dimensions an exact hull is built with the monotone
    chain; if the samples are collinear the hull degenerates, and we fall
    back to their bounding box inflated by one grid cell per side so the
    region keeps interior points.  In three or more dimensions the bounding
    box stands in for the hull.
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample to build a hull")
    pts = samples.params
    grid = samples.grid

    if grid.dim == 2:
        verts = _monotone_chain(pts)
        if len(verts) >= 3:
            return DomainMask(grid, _polygon_mask(grid, verts), "tilde",
                              ("polygon", verts))
        # collinear (or fewer than three distinct points): inflate the
        # bounding box by one cell per side, clipped to the domain
        pad = np.asarray(grid.spacing)
        lows = np.clip(pts.min(axis=0) - pad, 0.0, 1.0)
        highs = np.clip(pts.max(axis=0) + pad, 0.0, 1.0)
        return DomainMask(grid, _box_mask(grid, lows, highs), "tilde",
                          ("box", lows, highs))

    lows = pts.min(axis=0)
    highs = pts.max(axis=0)
    return DomainMask(grid, _box_mask(grid, lows, highs), "tilde",
                      ("box", lows, highs))


def enlarge_mask(hull: DomainMask, factor: float) -> DomainMask:
    """Scale a hull about its vertex centroid (a box about its centre) and
    re-mask the grid.

    ``factor`` is the homothety ratio (1.1 gives a ten percent uniform
    enlargement).  The scaled region is clipped to the unit domain.  The
    result always contains the original mask.
    """
    if factor < 1.0:
        raise ValueError(f"enlargement factor must be >= 1, got {factor}")
    grid = hull.grid

    if hull.geometry[0] == "polygon":
        verts = hull.geometry[1]
        centroid = verts.mean(axis=0)
        # the grid only holds points of the unit box, so masking with the
        # raw scaled polygon intersects it with the domain exactly
        scaled = centroid + factor * (verts - centroid)
        member = _polygon_mask(grid, scaled)
        return DomainMask(grid, member | hull.member, "hat", ("polygon", scaled))

    lows, highs = hull.geometry[1], hull.geometry[2]
    center = 0.5 * (lows + highs)
    new_lows = np.clip(center + factor * (lows - center), 0.0, 1.0)
    new_highs = np.clip(center + factor * (highs - center), 0.0, 1.0)
    member = _box_mask(grid, new_lows, new_highs)
    return DomainMask(grid, member | hull.member, "hat",
                      ("box", new_lows, new_highs))


def partition_masks(samples: SampleSet) -> tuple[DomainMask, DomainMask, DomainMask]:
    """The nested triple (tilde, hat, global) for the current samples."""
    tilde = convex_hull_mask(samples)
    return tilde, enlarge_mask(tilde, ENLARGEMENT), global_mask(samples.grid)
