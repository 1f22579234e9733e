"""PAC over-estimation of the kernel norm from measured data.

The estimator starts from a candidate bound B, draws batches of random
interpolating functions for the current measurements, and accepts B once it
dominates the empirical mean of their kernel norms plus a Hoeffding
confidence width. The looks are at ``q_init``, ``2 q_init``, ... and last at
``q_max``, so no call reads more than ``q_max`` draws. Once a look puts B
below the mean minus the width, or the budget runs out before acceptance,
B is escalated by the safety factor ``F_SAFETY`` until the test passes and
the result is flagged as escalated.

The draws come from one region's :class:`~pacsbo.rkhs_function.DrawPool`,
which extends its earlier draws exactly, so no channel's outcome depends on
how batches are scheduled or on which channels share the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .rkhs_function import DrawPool, SamplerConfig

F_SAFETY = 1.5  # growth factor of an escalated bound


def hoeffding_width(delta: float, q: int, value_range: float) -> float:
    """Confidence width sqrt(ln(2/delta) * range^2 / (2 q))."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if q < 1:
        raise ValueError(f"need at least one draw, got q={q}")
    if value_range < 0:
        raise ValueError(f"range must be nonnegative, got {value_range}")
    return math.sqrt(math.log(2.0 / delta) * value_range ** 2 / (2.0 * q))


@dataclass(frozen=True)
class PacConfig:
    """Draw budget and sampler of the norm estimator."""

    q_init: int = 500
    q_max: int = 5000
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.q_init < 1:
            raise ValueError(f"q_init must be positive, got {self.q_init}")
        if self.q_init > self.q_max:
            raise ValueError(
                f"q_init ({self.q_init}) may not exceed q_max ({self.q_max})")


@dataclass(frozen=True)
class PacResult:
    """Outcome of one norm over-estimation call."""

    bound: float
    q_used: int
    empirical_mean: float
    width: float
    escalated: bool

    def __post_init__(self):
        if not self.escalated and self.bound < self.empirical_mean + self.width:
            raise ValueError("non-escalated bound below the acceptance level")


def estimate_upper_bound(start: float, pool: DrawPool, i: int, *,
                         delta: float, cfg: PacConfig) -> PacResult:
    """Run the accept-or-grow loop for channel ``i`` on ``pool``'s region.

    ``start`` is the candidate bound (the trained predictor's output in the
    loop); ``delta`` is the confidence level of this one call (the loop
    splits its own over regions and channels). Batches of ``cfg.q_init``
    draws are read from the pool, the last one cut to end at ``cfg.q_max``.
    After each, ``start`` is accepted if it reaches ``mean + width``, and
    escalated on the draws read so far if it lies below ``mean - width``.
    """
    start = float(start)
    if not math.isfinite(start):
        raise NumericError(f"predicted norm bound is not finite: {start}")
    bound = max(start, float(np.finfo(float).tiny))

    for q in (*range(cfg.q_init, cfg.q_max, cfg.q_init), cfg.q_max):
        norms = pool.norms(i, q)
        mean = float(np.mean(norms))
        width = hoeffding_width(delta, q, float(norms.max() - norms.min()))
        if bound >= mean + width:
            return PacResult(bound, q, mean, width, escalated=False)
        if bound < mean - width:
            break
    while bound < mean + width:
        bound *= F_SAFETY
    return PacResult(bound, q, mean, width, escalated=True)
