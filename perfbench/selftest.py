"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload at a tiny scale and requires its checks to pass, then
feeds each check a copy of those outputs with one fault planted and
requires the check to fail. Exits 0 when every case behaves, 1 otherwise.
Takes a few seconds.
"""
import copy
import os
import shutil
import sys

import run  # sets the thread limits before numpy loads

workloads = run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402

OUT = run.HERE / "out" / f"selftest-{os.getpid()}"


def changed(rows, index, column, value):
    out = copy.deepcopy(rows)
    out[index][column] = value
    return out


def tiny(name, seed=0):
    wl = workloads.WORKLOADS[name](seed, OUT / name, tiny=True)
    wl.setup()
    if wl.run_round():
        raise RuntimeError(f"{name}: the tiny round had failed operations")
    return wl


def thresholds_cases():
    wl = tiny("thresholds1d")
    rows = wl.rows()
    p = wl.params
    norms = [wl.inputs[int(r["seed"])]["norm"] for r in rows]

    def share(rs):
        return checks.check_bound_share(
            [float(r["accepted_bound"]) for r in rs], norms, p["delta"])

    def guess(rs):
        return checks.check_initial_guess(rs, wl.inputs, p["noise_std"],
                                          p["lengthscale"])

    low = float(rows[0]["threshold"]) * 0.99
    yield "thresholds1d tiny run", wl.check(), False
    yield ("bound below draw mean + width",
           checks.check_accepted_above_threshold(
               changed(rows, 0, "accepted_bound", repr(low))), True)
    esc = next(k for k, r in enumerate(rows) if int(r["escalated"]))
    off = float(rows[esc]["accepted_bound"]) * 1.01
    yield ("escalated bound off the 1.5 ladder",
           checks.check_escalation_powers(
               changed(rows, esc, "accepted_bound", repr(off))), True)
    g = float(rows[0]["initial_guess"]) * (1 + 1e-6)
    yield ("initial guess off the dense-solve norm by 1e-6",
           guess(changed(rows, 0, "initial_guess", repr(g))), True)
    yield ("bound below the true norm",
           share(changed(rows, 0, "accepted_bound", repr(0.5 * norms[0]))),
           True)


def loop_cases(wl, rows, cfg, truth, label):
    rec = workloads.truth_record(truth, cfg.kernel.lengthscale)
    sigma = cfg.noise_std
    seeds = wl._seed_measurements(cfg, truth)
    yield (f"{label}: missing last iteration",
           checks.check_iterations(rows[:-1], cfg.budget), True)
    shifted = float(rows[0]["reward"]) + 3 * sigma
    yield (f"{label}: measurement shifted by 3 sigma",
           checks.check_measurements(
               changed(rows, 0, "reward", repr(shifted)), rec, sigma, 2),
           True)
    best = float(rows[-1]["best_so_far"]) + 0.1
    yield (f"{label}: best_so_far above the running maximum",
           checks.check_best_so_far(
               changed(rows, len(rows) - 1, "best_so_far", repr(best)),
               seeds), True)


def pacsbo_cases():
    wl = tiny("pacsbo2d")
    rows = wl.rows()
    truth = wl.truths[wl.seed]
    cfg = workloads.harness._pacsbo_config(wl.params, wl.grid, wl.kernel,
                                           wl.s0[wl.seed], wl.seed)
    yield "pacsbo2d tiny run", wl.check(), False
    yield from loop_cases(wl, rows, cfg, truth, "pacsbo2d")
    norm = checks.expansion_norm(truth.reward.centers,
                                 truth.reward.coefficients,
                                 wl.kernel.lengthscale)
    low = [dict(r, B_global=repr(0.5 * norm)) for r in rows]
    yield ("pacsbo2d: B_global below the true norm",
           checks.check_bound_share([float(r["B_global"]) for r in low],
                                    [norm] * len(low), wl.params["delta"]),
           True)


def safeopt_cases():
    wl = tiny("safeopt2d")
    s = wl.truth_seeds[0]
    rows = wl.rows(s)
    truth, cfg = wl.truths[s], wl.cfgs[s]
    yield "safeopt2d tiny run", wl.check(), False
    yield from loop_cases(wl, rows, cfg, truth, "safeopt2d")
    rec = workloads.truth_record(truth, wl.kernel.lengthscale)
    values = checks.expansion_values(rec["centers"], rec["coeffs"],
                                     wl.grid.points, rec["ls"])
    bad = int(np.argmin(values))
    moved = changed(rows, 0, "a0", repr(float(wl.grid.points[bad][0])))
    moved[0]["a1"] = repr(float(wl.grid.points[bad][1]))
    yield ("safeopt2d: measurement at a truly unsafe point",
           checks.check_no_unsafe(moved, rec, 2), True)

    state, oracle = wl.last_state(s)
    flip = int(np.argmax(np.abs(oracle.lower)))
    safe = state.safe.copy()
    safe[flip] = not safe[flip]
    yield ("safeopt2d: safe set with one point flipped",
           checks.check_safe_set(safe, oracle), True)
    rejected = next(int(a) for a in np.flatnonzero(state.safe
                                                   & ~state.expander_set)
                    if oracle.expander_margin(int(a)) < -checks.ZERO_TOL)
    g = state.expander_set.copy()
    g[rejected] = True
    yield ("safeopt2d: expander the refit oracle rejects",
           checks.check_expanders(g, oracle), True)


def main() -> int:
    bad = 0
    try:
        for cases in (thresholds_cases, pacsbo_cases, safeopt_cases):
            for label, fails, should_fail in cases():
                ok = bool(fails) == should_fail
                bad += not ok
                want = "caught" if should_fail else "passes"
                got = fails[0] if fails else "no failure"
                print(f"{'ok  ' if ok else 'BAD '} {label}: expected "
                      f"{want}; {got}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{bad} case(s) misbehaved" if bad else "all cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
