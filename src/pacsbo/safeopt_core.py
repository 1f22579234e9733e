"""Safe exploration subroutine over a masked grid.

Given per-channel posteriors and a kernel-norm bound B per channel, this
module builds confidence intervals, classifies grid points into the safe
set S, the potential maximizers M, and the potential expanders G, and picks
the next evaluation as the most uncertain point of M | G.
:func:`compute_state` classifies one region under its own bounds;
:func:`select` applies the tie rule over the classified regions. Both are
called by the loop's iteration :func:`pacsbo.pacsbo_loop.pacsbo_step`,
which every caller runs: both algorithms and the predictor's training
rollouts.

All point sets are boolean arrays over the full grid; points outside the
active mask are never members. Confidence values outside the mask are NaN
on purpose, so any accidental use of an out-of-mask bound surfaces as a
non-finite result instead of a silently wrong one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .kernel_gp import (clamp_variance, kernel_block, observation_update,
                        predictive)
from .subdomain import DomainMask

# candidates per closed-form update in :func:`expanders`
_BLOCK = 32
# relative width gap within which acquisition candidates tie; mirror-image
# grid points have equal widths in exact arithmetic and differ by rounding
TIE_RTOL = 1e-9


def beta_scale(bound: float, noise_std: float, gamma: float, delta: float) -> float:
    """Confidence scaling sqrt(beta) = B + sigma*sqrt(2*(gamma + 1 + ln(1/delta))).

    ``gamma`` is the information gain of the data the posterior was fitted
    on, a computable stand-in for the maximal information gain appearing in
    frequentist GP confidence bounds.
    """
    if bound <= 0:
        raise ValueError(f"norm bound must be positive, got {bound}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if gamma < 0:
        raise ValueError(f"information gain must be nonnegative, got {gamma}")
    if noise_std < 0:
        raise ValueError(f"noise level must be nonnegative, got {noise_std}")
    return bound + noise_std * math.sqrt(2.0 * (gamma + 1.0 + math.log(1.0 / delta)))


@dataclass(frozen=True)
class ConfidenceField:
    """Lower/upper confidence bounds per function channel on masked points."""

    betas: dict  # channel -> sqrt(beta)
    lower: dict  # channel -> array over the full grid, NaN outside the mask
    upper: dict

    @property
    def channels(self) -> tuple:
        return tuple(sorted(self.lower))

    def width(self, i: int) -> np.ndarray:
        return self.upper[i] - self.lower[i]


def confidence_bounds(pred, betas: dict, mask: DomainMask) -> ConfidenceField:
    """l = mu - sqrt(beta)*sigma and u = mu + sqrt(beta)*sigma on the mask,
    from ``pred``, the ``predictive`` over the mask's points in order."""
    means, var, _ = pred
    if set(means) != set(betas):
        raise ValueError("posteriors and betas must cover the same channels")
    sd = np.sqrt(clamp_variance(var))
    lower, upper = {}, {}
    for i, mean in means.items():
        half = betas[i] * sd
        lower[i] = np.full(mask.grid.num_points, np.nan)
        upper[i] = np.full(mask.grid.num_points, np.nan)
        lower[i][mask.member] = mean - half
        upper[i][mask.member] = mean + half
    return ConfidenceField(dict(betas), lower, upper)


def safe_set(field: ConfidenceField, seed_indices, mask: DomainMask):
    """Safe points: the seed set plus every point whose constraint lower
    bounds are all nonnegative.

    Returns ``(S, seeded)`` where ``seeded`` is False when no seed point
    lies inside the mask; the caller is expected to fall back to a wider
    partition in that case.
    """
    seed = np.zeros(mask.grid.num_points, dtype=bool)
    seed[np.asarray(list(seed_indices), dtype=int)] = True
    seed &= mask.member
    constraints = [i for i in field.channels if i != 0]
    certified = mask.member.copy()
    for i in constraints:
        with np.errstate(invalid="ignore"):
            certified &= field.lower[i] >= 0.0
    return seed | certified, bool(seed.any())


def maximizers(field: ConfidenceField, safe: np.ndarray) -> np.ndarray:
    """Safe points whose reward upper bound reaches the best safe lower bound."""
    m = np.zeros_like(safe)
    if not safe.any():
        return m
    best_lower = field.lower[0][safe].max()
    with np.errstate(invalid="ignore"):
        m[safe] = field.upper[0][safe] >= best_lower
    return m


def _boundary_candidates(safe: np.ndarray, mask: DomainMask) -> np.ndarray:
    """Safe points with an axis neighbor (one cell away) outside the safe set.

    This is the default candidate filter for the expander test. It tests
    fewer points than the SafeOpt definition asks for and can miss interior
    expanders; ``exact=True`` in :func:`expanders` tests every safe point.
    """
    shape = mask.grid.resolution
    outside = (mask.member & ~safe).reshape(shape)
    cross = ndimage.generate_binary_structure(len(shape), 1)
    return safe & ndimage.binary_dilation(outside, cross).reshape(-1)


def expanders(posteriors: dict, pred, field: ConfidenceField,
              safe: np.ndarray, mask: DomainMask, exact: bool = False):
    """Safe points whose optimistic observation would certify a new point
    as safe.

    For each candidate a, every constraint channel receives a fictitious
    observation at its upper bound u(a, i), in closed form and for a block
    of candidates at once (:func:`observation_update`); a point outside the
    safe set that gets nonnegative lower bounds on all channels makes a an
    expander. Their posteriors are columns of ``pred`` (see
    :func:`confidence_bounds`); ``posteriors`` give kernel and noise. With
    ``exact=True`` all safe points are tested, not only boundary ones.
    """
    g = np.zeros_like(safe)
    constraints = [i for i in field.channels if i != 0]
    outside = mask.member & ~safe
    if not constraints or not outside.any() or not safe.any():
        return g
    post = next(iter(posteriors.values()))
    means, var, v = pred
    idx = mask.indices()
    out = np.flatnonzero(outside[idx])
    out_idx, v_q = idx[out], v[:, out]
    candidates = np.flatnonzero(safe if exact
                                else _boundary_candidates(safe, mask))
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start:start + _BLOCK]
        cols = np.searchsorted(idx, block)
        k_n = (kernel_block(mask.grid, post.kernel, block, out_idx)
               - v[:, cols].T @ v_q)
        newly_safe = np.ones((len(block), len(out)), dtype=bool)
        for i in constraints:
            mean, var_n = observation_update(
                means[i][out], var[out], means[i][cols], var[cols], k_n,
                field.upper[i][block], post.noise_std)
            newly_safe &= mean - field.betas[i] * np.sqrt(var_n) >= 0.0
        g[block] = np.any(newly_safe, axis=1)
    return g


@dataclass(frozen=True)
class SafeOptState:
    """One iteration's classification of the masked grid."""

    field: ConfidenceField
    safe: np.ndarray
    maximizer_set: np.ndarray
    expander_set: np.ndarray
    seeded: bool

    def __post_init__(self):
        if (self.maximizer_set & ~self.safe).any():
            raise ValueError("maximizers leak outside the safe set")
        if (self.expander_set & ~self.safe).any():
            raise ValueError("expanders leak outside the safe set")

    def candidates(self) -> np.ndarray:
        return self.maximizer_set | self.expander_set


def compute_state(posteriors: dict, betas: dict, mask: DomainMask,
                  seed_indices, exact_expanders: bool = False,
                  pred=None) -> SafeOptState:
    """Classify the masked grid for the current posteriors and bounds; one
    posterior over the mask (``pred`` if given) feeds bounds and expanders."""
    pred = predictive(posteriors, mask.indices()) if pred is None else pred
    field = confidence_bounds(pred, betas, mask)
    safe, seeded = safe_set(field, seed_indices, mask)
    m = maximizers(field, safe)
    g = expanders(posteriors, pred, field, safe, mask, exact=exact_expanders)
    return SafeOptState(field, safe, m, g, seeded)


def select(states: dict):
    """Most uncertain candidate over classified regions: ``states`` maps
    region labels, in region order, to their :class:`SafeOptState`, and a
    region that misses the seed set contributes no candidates. A candidate
    ties when its width reaches ``1 - TIE_RTOL`` times the largest over all
    seeded regions; ties break toward the earlier region, then the lower
    grid index. Returns ``(choice, label)``, both None without a candidate.
    """
    widths = {}  # max-channel width per seeded region, zero off candidates
    for label, st in states.items():
        if st.seeded:
            w = np.max([st.field.width(i) for i in st.field.channels], axis=0)
            widths[label] = np.where(st.candidates(), w, 0.0)
    top = max((w.max() for w in widths.values()), default=0.0)
    for label, w in widths.items():
        tied = np.flatnonzero(states[label].candidates()
                              & (w >= (1.0 - TIE_RTOL) * top))
        if len(tied):
            return int(tied[0]), label
    return None, None
