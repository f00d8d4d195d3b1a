"""Acceptance gate: one test per release criterion, each ending in a printed
pass line (run with `pytest tests/test_acceptance.py -s` to watch them go by).

The benchmark replays behind the `runs` fixture are produced once per session
and shared; the first criterion to touch a (case, seed) pair pays for it.
"""

import dataclasses
import math

import numpy as np

from hwconsensus import (
    Schedule,
    build_auxiliary,
    build_state_space,
    builtin_case,
    check_window_bound,
    consensus_metrics,
    consensus_point,
    diameter,
    full_verification,
    gain_roots,
    laplacian,
    lyapunov_v,
    m_of,
    make_nonlinearity,
    make_plant,
    noise_decomposition,
    poly,
    regression_g,
    run,
    save_run,
    static_gain,
    step,
    step_state_space,
    truncation_times,
    verify_centralized_recursion,
)
from hwconsensus.analysis import _window_counts

from conftest import forced_truncation_scenarios
from test_plant import _random_stable_poly

CASES = (1, 2, 3)
SEEDS = (1, 2, 3, 4, 5)


def _metrics(res, scenario):
    return consensus_metrics(res.log, scenario.gains(),
                             laplacian(scenario.topology))


def test_criterion_01_noisy_benchmark_reproduction(runs, cases):
    # per run: counts settle within the first 10% of steps, the consensus
    # residual ends at <= 10% of its running maximum, the output spread
    # averaged over the last 1000 steps is < 0.5, and the loop stays under
    # the 10 s budget
    worst_ratio = 0.0
    worst_spread = 0.0
    worst_wall = 0.0
    for case in CASES:
        s = cases[case]
        for seed in SEEDS:
            res = runs(case, seed)
            met = _metrics(res, s)
            K = res.log.horizon
            tail = met.sigma_bar[K // 10:]
            assert np.all(tail == tail[-1]), \
                f"case {case} seed {seed}: counts still moving in final 90%"
            ratio = met.residual[-1] / met.residual.max()
            assert ratio <= 0.10, f"case {case} seed {seed}: ratio {ratio:.3f}"
            spread = float(met.spread_y[-1000:].mean())
            assert spread < 0.5, f"case {case} seed {seed}: spread {spread:.3f}"
            wall = res.summary["wall_time"]
            assert wall < 10.0, f"case {case} seed {seed}: {wall:.1f} s"
            worst_ratio = max(worst_ratio, ratio)
            worst_spread = max(worst_spread, spread)
            worst_wall = max(worst_wall, wall)
    print(f"criterion 01 noisy reproduction: PASS "
          f"(15 runs; worst residual ratio {worst_ratio:.3f}, "
          f"worst tail spread {worst_spread:.3f}, worst wall {worst_wall:.1f} s)")


def test_criterion_02_noise_free_reproduction(runs, cases):
    details = []
    for case in CASES:
        res = runs(case, 0, noise_off=True)
        s = cases[case]
        met = _metrics(res, s)
        spread = float(met.spread_y[-1])
        assert spread < 1e-2, f"case {case}: final spread {spread:.2e}"
        sig = res.log.sigma
        moved = np.nonzero((sig[1:] != sig[:-1]).any(axis=1))[0] + 1
        last_change = int(moved[-1]) if len(moved) else 0
        settle = last_change + 500  # let the post-reset transient wash out
        seg = met.residual[settle:]
        assert len(seg) > 90_000
        jitter = float(np.diff(seg).max())
        assert jitter <= 1e-12, f"case {case}: jitter {jitter:.2e} after {settle}"
        details.append(f"case {case} settle {settle} spread {spread:.1e}")
    print(f"criterion 02 noise-free reproduction: PASS ({'; '.join(details)})")


def test_criterion_03_centralized_replay_oracle(runs, cases):
    worst = 0.0
    for case in CASES:
        s = cases[case]
        gains = s.gains()
        for seed in SEEDS:
            res = runs(case, seed)
            aux = build_auxiliary(res.log, gains, s.topology)
            rec = verify_centralized_recursion(aux, Schedule(c_M=55.0))
            assert rec.passed, f"case {case} seed {seed}"
            assert rec.max_abs_residual < 1e-9
            worst = max(worst, rec.max_abs_residual)

    # negative control: one perturbed estimate must surface at full size
    res = runs(1, 1)
    r = res.log.horizon - 1000
    u2 = res.log.u.copy()
    u2[r, 0] += 1e-3
    delta = u2[r, 0] - res.log.u[r, 0]
    tampered = dataclasses.replace(res.log, u=u2)
    rec = verify_centralized_recursion(
        build_auxiliary(tampered, cases[1].gains(), cases[1].topology),
        Schedule(c_M=55.0))
    assert not rec.passed
    assert rec.max_abs_residual >= delta > 0.99e-3
    print(f"criterion 03 centralized replay: PASS "
          f"(15 logs, worst residual {worst:.1e}; "
          f"control fails at {rec.max_abs_residual:.1e})")


def test_criterion_04_truncation_window_diameter_bound(runs, cases):
    checked = 0
    for case in CASES:
        s = cases[case]
        d = diameter(s.topology)
        assert d == 2
        for seed in SEEDS + (0,):
            res = runs(case, seed, noise_off=(seed == 0))
            times = truncation_times(res.log)
            if times.top == 0:
                continue
            assert check_window_bound(times, d, res.log.horizon), \
                f"case {case} seed {seed}"
            for m in range(1, times.top + 1):
                gaps = times.r_agent[m] - times.r[m]
                fin = np.isfinite(times.r_agent[m])
                assert np.all(gaps[fin] >= 0)
                assert np.all(gaps[fin] <= d)
            checked += 1
    assert checked >= 15

    forced = 0
    for s in forced_truncation_scenarios():
        res = run(s)
        times = truncation_times(res.log)
        assert times.top >= 1, s.label
        assert check_window_bound(times, diameter(s.topology), s.horizon), s.label
        forced += 1
    assert forced >= 3
    print(f"criterion 04 window bound: PASS "
          f"({checked} benchmark runs with truncations, {forced} forced scenarios)")


def test_criterion_05_step_count_window_bounds():
    import mpmath as mp
    grid_T = (0.1, 0.5, 1.0, 2.0)
    total = 0
    for T in grid_T:
        with mp.workdps(60):
            tt = mp.mpf(T)
            hi = 0       # sum currently covers [k, hi]; empty when hi < k
            s = mp.mpf(0)
            for k in range(1, 1001):
                if hi < k:
                    hi = k - 1
                    s = mp.mpf(0)
                elif k > 1:
                    s -= mp.mpf(1) / (k - 1)
                while s + mp.mpf(1) / (hi + 1) <= tt:
                    s += mp.mpf(1) / (hi + 1)
                    hi += 1
                m = m_of(k, T)     # asserts the exponential sandwich itself
                assert m == hi, (k, T, m, hi)
                # the memoised table full_verification reads
                assert _window_counts(1000, T)[k - 1] == hi, (k, T, hi)
                assert (k - 1) * math.exp(T) - 1.0 < m < k * math.exp(T) - 1.0
                total += 1
    print(f"criterion 05 step-count bounds: PASS "
          f"({total} grid points, exact oracle agreement)")


def test_criterion_06_dynamics_cross_oracle():
    worst = 0.0
    configs = 0
    for case in CASES:
        for idx, a in enumerate(builtin_case(case).agents):
            rng = np.random.default_rng(100 * case + idx)
            plant = a.build()
            ss = build_state_space(a.C, a.D)
            for u in rng.uniform(-3.0, 3.0, size=1000):
                u = float(u)
                y_diff = step(plant, u)
                if plant.kind == "hammerstein":
                    y_ss = step_state_space(ss, plant.f(u))
                else:
                    y_ss = plant.f(step_state_space(ss, u))
                err = abs(y_diff - y_ss)
                assert err < 1e-10, (case, idx + 1, err)
                worst = max(worst, err)
            configs += 1
    assert configs == 12

    ident = make_nonlinearity("identity", {})
    rng = np.random.default_rng(2026)
    randoms = 0
    for trial in range(100):
        C = _random_stable_poly(rng)
        D = poly([1.0] + list(rng.uniform(-2, 2, size=rng.integers(0, 4))))
        kind = "hammerstein" if trial % 2 == 0 else "wiener"
        plant = make_plant(kind, C, D, ident)
        ss = build_state_space(C, D)
        for u in rng.uniform(-4.0, 4.0, size=1000):
            y_diff = step(plant, float(u))
            y_ss = step_state_space(ss, float(u))
            err = abs(y_diff - y_ss)
            assert err < 1e-10, (trial, err)
            worst = max(worst, err)
        randoms += 1
    assert randoms == 100
    print(f"criterion 06 dynamics oracle: PASS "
          f"(12 benchmark configs + 100 random systems, worst gap {worst:.1e})")


def test_criterion_07_noise_decomposition_every_step(runs, cases):
    res = runs(1, 1)
    s = cases[1]
    report, extras = full_verification(res.log, s.gains(), s.topology)
    err = report["decomposition_max_err"]
    assert err < 1e-10, f"max error {err:.2e}"

    # the per-step route agrees with the vectorized sweep
    gains, lap = s.gains(), laplacian(s.topology)
    for k in (1, 17, 5000, res.log.horizon):
        for i in (1, 3):
            e1, e2, e3 = noise_decomposition(res.log, k, i, gains, lap)
            g = regression_g(res.log.u[k - 1], gains, lap)[i - 1]
            target = res.log.O_next[k - 1, i - 1] - g
            assert abs((e1 + e2 + e3) - target) < 1e-10
    print(f"criterion 07 noise decomposition: PASS "
          f"(every step of case 1 seed 1, max error {err:.1e})")


def test_criterion_08_consensus_point_solver(runs, cases):
    ident = make_nonlinearity("identity", {})
    one = poly([1.0])
    ident_gains = [static_gain(make_plant("hammerstein", one, one, ident))
                   for _ in range(4)]
    cp = consensus_point(ident_gains, 4.0)
    assert abs(cp.b - 1.0) < 1e-9
    assert np.max(np.abs(cp.u - 1.0)) < 1e-9

    linear_gains = [
        static_gain(make_plant(
            "hammerstein", one, one,
            make_nonlinearity("affine", {"beta": float(i), "gamma": 0.0})))
        for i in (1, 2, 3, 4)
    ]
    cp = consensus_point(linear_gains, 25.0)
    assert np.max(np.abs(cp.u - np.array([12.0, 6.0, 4.0, 3.0]))) < 1e-9
    assert abs(cp.b - 12.0) < 1e-9

    gaps = []
    for case in CASES:
        res = runs(case, 0, noise_off=True)
        u_K = res.log.u[-1]
        cp = consensus_point(cases[case].gains(), float(u_K.sum()))
        gap = float(np.max(np.abs(cp.u - u_K)))
        assert gap < 1e-2, f"case {case}: gap {gap:.2e}"
        gaps.append(f"case {case} {gap:.1e}")
    print(f"criterion 08 consensus point: PASS "
          f"(closed forms exact; converged-run gaps {', '.join(gaps)})")


def test_criterion_09_lyapunov_gradient_check(cases):
    delta = 1e-5
    worst = 0.0
    for case in CASES:
        gains = cases[case].gains()
        roots = gain_roots(gains)
        assert lyapunov_v(roots, gains) == 0.0
        rng = np.random.default_rng(900 + case)
        for _ in range(100):
            u = rng.uniform(-3.0, 3.0, size=4)
            v = lyapunov_v(u, gains)
            assert v >= 0.0
            for i in range(4):
                up, dn = u.copy(), u.copy()
                up[i] += delta
                dn[i] -= delta
                fd = (lyapunov_v(up, gains) - lyapunov_v(dn, gains)) / (2 * delta)
                err = abs(fd - gains[i](u[i]))
                assert err < 1e-6, (case, i, err)
                worst = max(worst, err)
    print(f"criterion 09 lyapunov gradient: PASS "
          f"(300 points, v >= 0, v(root)=0, worst gradient gap {worst:.1e})")


def test_criterion_10_byte_identical_replay(runs, tmp_path):
    first = runs(1, 1)
    second = run(builtin_case(1), master_seed=1)
    da, db = tmp_path / "a", tmp_path / "b"
    save_run(first, str(da))
    save_run(second, str(db))
    for name in ("trajectory.csv", "edges.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes(), name
    size = (da / "trajectory.csv").stat().st_size
    print(f"criterion 10 determinism: PASS "
          f"(two seed-1 case 1 runs, trajectory files byte-identical, {size} bytes)")
