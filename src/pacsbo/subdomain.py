"""Grid masks for the three nested regions used by the optimizer.

The optimizer reasons about three regions at once: the convex hull of the
points sampled so far (``tilde``), a uniformly enlarged copy of that hull
(``hat``), and the whole domain (``global``).  Each region is represented as
a boolean mask over the points of a :class:`~pacsbo.kernel_gp.GridDomain`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_gp import GridDomain, SampleSet

BOUNDARY_TOL = 1e-12
ENLARGEMENT = 1.1  # homothety ratio of the hat region about the hull


@dataclass(frozen=True)
class DomainMask:
    """Immutable membership mask over the points of a grid."""

    grid: GridDomain
    member: np.ndarray  # bool, shape (num_points,)

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

    @property
    def count(self) -> int:
        return int(self.member.sum())

    def indices(self) -> np.ndarray:
        """Grid indices of the member points."""
        return np.flatnonzero(self.member)


def cross_dilation(member: np.ndarray) -> np.ndarray:
    """``member``, a boolean array shaped like the grid, grown by one cell
    along each axis; cells past the border count as outside."""
    out = member.copy()
    for axis in range(member.ndim):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        out[head] |= member[tail]
        out[tail] |= member[head]
    return out


def global_mask(grid: GridDomain) -> DomainMask:
    return DomainMask(grid, np.ones(grid.num_points, dtype=bool))


def _box_mask(grid: GridDomain, box: np.ndarray) -> np.ndarray:
    """Points of the grid inside or on the box with rows (lows, highs)."""
    return np.all((grid.points >= box[0] - BOUNDARY_TOL)
                  & (grid.points <= box[1] + BOUNDARY_TOL), axis=1)


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
    edge = np.roll(vertices, -1, axis=0) - vertices  # vertex k to k + 1
    x, y = grid.points[:, 0], grid.points[:, 1]
    # (m, num_points): each point's side of each edge
    cross = (edge[:, :1] * (y - vertices[:, 1:])
             - edge[:, 1:] * (x - vertices[:, :1]))
    return np.all(cross >= -BOUNDARY_TOL, axis=0)


def _hull_member(samples: SampleSet, factor: float) -> np.ndarray:
    """Grid membership of the samples' hull scaled by ``factor``.

    The hull is the closed interval spanned by the samples in one
    dimension. In two dimensions it is the exact polygon of the monotone
    chain; if the samples are collinear the polygon degenerates, and their
    bounding box inflated by one grid cell per side (clipped to the domain)
    stands in so the region keeps interior points. In three or more
    dimensions the bounding box stands in for the hull.

    ``factor`` is the homothety ratio (1.1 gives a ten percent uniform
    enlargement) about the polygon's vertex centroid or the box's centre.
    The grid only holds points of the unit box, so masking with the raw
    scaled shape intersects it with the domain exactly. At factor 1 the
    unscaled shape is masked, since ``c + 1.0 * (x - c)`` need not round
    back to ``x``.
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample to build a hull")
    if factor < 1.0:
        raise ValueError(f"enlargement factor must be >= 1, got {factor}")
    grid, pts = samples.grid, samples.params
    verts = _monotone_chain(pts) if grid.dim == 2 else ()
    if len(verts) >= 3:
        shape, to_member = verts, _polygon_mask
    else:
        pad = np.asarray(grid.spacing) if grid.dim == 2 else 0.0
        shape = np.clip([pts.min(axis=0) - pad, pts.max(axis=0) + pad], 0.0, 1.0)
        to_member = _box_mask
    if factor != 1.0:
        center = shape.mean(axis=0)
        shape = center + factor * (shape - center)
    return to_member(grid, shape)


def partition_masks(samples: SampleSet) -> tuple[DomainMask, DomainMask, DomainMask]:
    """The nested triple (tilde, hat, global) for the current samples.

    The hat mask always contains the tilde mask.
    """
    tilde = _hull_member(samples, 1.0)
    hat = _hull_member(samples, ENLARGEMENT) | tilde
    return (DomainMask(samples.grid, tilde), DomainMask(samples.grid, hat),
            global_mask(samples.grid))
