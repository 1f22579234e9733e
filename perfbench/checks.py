"""Output checks, computed apart from the program.

The kernel, the dense-solve posterior, the information gain and the
expander oracle below are written here from their textbook definitions and
share no code with ``pacsbo``. Every check takes plain data (CSV rows as
dicts of strings, arrays) and returns a list of failure messages, empty
when the outputs pass, so the self-test can feed it corrupted copies.
"""
from __future__ import annotations

import math

import numpy as np

# values in the program's CSV files carry ten significant digits
CSV_REL = 1e-9
# margin for the sign tests on confidence bounds
ZERO_TOL = 1e-9


def matern32(x, y, lengthscale: float) -> np.ndarray:
    """Matern-3/2 Gram block between the rows of ``x`` and ``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x = x.reshape(x.shape[0], -1)
    y = y.reshape(y.shape[0], -1)
    sq = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        sq += (x[:, k][:, None] - y[:, k][None, :]) ** 2
    s = math.sqrt(3.0) * np.sqrt(sq) / lengthscale
    return (1.0 + s) * np.exp(-s)


def expansion_values(centers, coeffs, points, lengthscale) -> np.ndarray:
    return matern32(points, centers, lengthscale) @ np.asarray(coeffs)


def expansion_norm(centers, coeffs, lengthscale) -> float:
    """Kernel norm sqrt(alpha^T K alpha) of a kernel expansion."""
    a = np.asarray(coeffs, dtype=float)
    return math.sqrt(float(a @ matern32(centers, centers, lengthscale) @ a))


class DensePosterior:
    """GP posterior by plain dense solves of (K + noise^2 I)."""

    def __init__(self, x, y, noise: float, lengthscale: float):
        self.x = np.asarray(x, dtype=float).reshape(len(y), -1)
        self.ls = lengthscale
        self.noise = noise
        self.k = matern32(self.x, self.x, lengthscale)
        self.a = self.k + noise ** 2 * np.eye(len(y))
        self.w = np.linalg.solve(self.a, np.asarray(y, dtype=float))

    def predict(self, points):
        kq = matern32(self.x, points, self.ls)
        mean = kq.T @ self.w
        var = 1.0 - np.sum(kq * np.linalg.solve(self.a, kq), axis=0)
        return mean, np.clip(var, 0.0, 1.0)

    def mean_norm(self) -> float:
        return math.sqrt(max(float(self.w @ self.k @ self.w), 0.0))

    def info_gain(self) -> float:
        """0.5 log det(I + K / noise^2)."""
        n = len(self.w)
        _, logdet = np.linalg.slogdet(np.eye(n) + self.k / self.noise ** 2)
        return 0.5 * logdet


def beta(bound, noise, gamma, delta) -> float:
    """Confidence scale B + noise * sqrt(2 (gamma + 1 + ln(1/delta)))."""
    return bound + noise * math.sqrt(2.0 * (gamma + 1.0 + math.log(1 / delta)))


def _close(a, b, rel=CSV_REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# thresholds1d

def check_accepted_above_threshold(rows) -> list:
    """Every bound is at least the draw mean plus width it reports."""
    return [f"seed {r['seed']} m={r['num_samples']}: bound "
            f"{r['accepted_bound']} below mean + width {r['threshold']}"
            for r in rows
            if float(r["accepted_bound"])
            < float(r["threshold"]) * (1.0 - CSV_REL)]


def check_escalation_powers(rows, factor: float = 1.5) -> list:
    """An escalated bound is the initial guess times factor**k, k >= 1;
    an accepted one is the guess itself."""
    fails = []
    for r in rows:
        guess, bound = float(r["initial_guess"]), float(r["accepted_bound"])
        if int(r["escalated"]):
            k = math.log(bound / guess) / math.log(factor)
            if abs(k - round(k)) > 1e-7 or round(k) < 1:
                fails.append(f"seed {r['seed']} m={r['num_samples']}: "
                             f"escalated bound {bound} is guess {guess} "
                             f"times {factor}^{k:.6f}")
        elif not _close(bound, guess):
            fails.append(f"seed {r['seed']} m={r['num_samples']}: accepted "
                         f"bound {bound} differs from guess {guess}")
    return fails


def check_initial_guess(rows, inputs, noise, lengthscale) -> list:
    """The initial guess is the posterior-mean norm of the first m
    measurements, recomputed here from a dense solve, within 1e-8."""
    fails = []
    for r in rows:
        seed, m = int(r["seed"]), int(r["num_samples"])
        x, y = inputs[seed]["x"][:m], inputs[seed]["y"][:m]
        ref = DensePosterior(x, y, noise, lengthscale).mean_norm()
        guess = float(r["initial_guess"])
        if abs(guess - ref) > 1e-8 * ref:
            fails.append(f"seed {seed} m={m}: initial guess {guess} vs "
                         f"dense-solve norm {ref}")
    return fails


def check_bound_share(bounds, true_norms, delta, what="bounds") -> list:
    """At least a 1 - delta share of bounds are at or above the truth's
    norm."""
    ok = sum(b >= t for b, t in zip(bounds, true_norms))
    if ok < (1.0 - delta) * len(bounds):
        return [f"only {ok} of {len(bounds)} {what} reach the true norm "
                f"(need a {1 - delta:.2f} share)"]
    return []


# ---------------------------------------------------------------------------
# loop records (pacsbo2d and safeopt2d)

def point_of(row, dim) -> np.ndarray:
    return np.array([[float(row[f"a{k}"]) for k in range(dim)]])


def check_iterations(rows, budget) -> list:
    got = [int(r["iteration"]) for r in rows]
    if got != list(range(budget)):
        return [f"expected iterations 0..{budget - 1}, got {len(got)} rows"]
    return []


def check_measurements(rows, truth, noise, dim) -> list:
    """Every measurement lies within +-2 noise_std of the truth at the
    chosen point (the noise is truncated at two standard deviations)."""
    fails = []
    slack = 2.0 * noise * (1.0 + 1e-9) + 1e-9
    for r in rows:
        f = float(expansion_values(truth["centers"], truth["coeffs"],
                                   point_of(r, dim), truth["ls"])[0])
        for col, value in (("reward", f), ("constraint", f - truth["f_g"])):
            if abs(float(r[col]) - value) > slack:
                fails.append(f"iteration {r['iteration']}: {col} "
                             f"{r[col]} is {float(r[col]) - value:+.4g} "
                             f"from the truth")
    return fails


def check_best_so_far(rows, seed_measurements) -> list:
    """best_so_far is the running maximum of the rewards (start set
    included) whose constraint measurement was nonnegative."""
    best = -math.inf
    for reward, constraint in seed_measurements:
        if constraint >= 0.0:
            best = max(best, reward)
    fails = []
    for r in rows:
        if float(r["constraint"]) >= 0.0:
            best = max(best, float(r["reward"]))
        got = float(r["best_so_far"])
        want = best if best > -math.inf else math.nan
        if not (math.isnan(got) and math.isnan(want)) and \
                not _close(got, want):
            fails.append(f"iteration {r['iteration']}: best_so_far {got} "
                         f"vs running maximum {want}")
    return fails


def check_no_unsafe(rows, truth, dim) -> list:
    """No measurement at a point whose true constraint is negative."""
    fails = []
    for r in rows:
        f = float(expansion_values(truth["centers"], truth["coeffs"],
                                   point_of(r, dim), truth["ls"])[0])
        if f - truth["f_g"] < 0.0 or int(r["unsafe"]):
            fails.append(f"iteration {r['iteration']}: measured a truly "
                         f"unsafe point ({f - truth['f_g']:+.4g})")
    return fails


# ---------------------------------------------------------------------------
# SafeOpt state at one iteration

class SafeOptOracle:
    """Safe set and expanders of the constraint channel from dense solves.

    ``x``/``g`` are the sample coordinates and constraint measurements the
    loop had, ``points`` the grid, ``s0`` the start-set indices.
    """

    def __init__(self, x, g, points, s0, bound, noise, delta, lengthscale):
        self.x, self.g = np.asarray(x, float), np.asarray(g, float)
        self.points = np.asarray(points, float)
        self.noise, self.ls = noise, lengthscale
        post = DensePosterior(self.x, self.g, noise, lengthscale)
        self.beta = beta(bound, noise, post.info_gain(), delta)
        mean, var = post.predict(self.points)
        sd = np.sqrt(var)
        self.lower = mean - self.beta * sd
        self.upper = mean + self.beta * sd
        self.safe = self.lower >= 0.0
        self.safe[np.asarray(s0, dtype=int)] = True

    def lower_after(self, a: int, outside: np.ndarray) -> np.ndarray:
        """Constraint lower bounds on ``outside`` after a from-scratch refit
        with the fictitious observation u(a) appended."""
        x = np.vstack([self.x, self.points[a][None, :]])
        g = np.append(self.g, self.upper[a])
        mean, var = DensePosterior(x, g, self.noise, self.ls).predict(
            self.points[outside])
        return mean - self.beta * np.sqrt(var)

    def expander_margin(self, a: int) -> float:
        """Largest refitted lower bound outside the safe set (>= 0 makes
        ``a`` an expander)."""
        outside = np.flatnonzero(~self.safe)
        if outside.size == 0:
            return -math.inf
        return float(self.lower_after(a, outside).max())


def check_safe_set(reported_safe, oracle: SafeOptOracle) -> list:
    """The program's safe set equals the oracle's, except at points whose
    lower bound is within 1e-9 of zero."""
    reported = np.asarray(reported_safe, dtype=bool)
    differ = (reported != oracle.safe) & (np.abs(oracle.lower) > ZERO_TOL)
    if differ.any():
        idx = np.flatnonzero(differ)
        return [f"safe set differs from the dense-solve oracle at "
                f"{idx.size} points (first {idx[:5].tolist()})"]
    return []


def check_expanders(reported_expanders, oracle: SafeOptOracle) -> list:
    """Every reported expander is one under the brute-force refit oracle."""
    fails = []
    for a in np.flatnonzero(reported_expanders):
        margin = oracle.expander_margin(int(a))
        if margin < -ZERO_TOL:
            fails.append(f"reported expander {int(a)} certifies nothing "
                         f"under the refit oracle (best lower {margin:.3g})")
    return fails


def oracle_expander_count(oracle: SafeOptOracle) -> int:
    return sum(oracle.expander_margin(int(a)) >= -ZERO_TOL
               for a in np.flatnonzero(oracle.safe))
