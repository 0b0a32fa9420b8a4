"""The SciPy-free Kolmogorov-Smirnov test against SciPy's own functions, bit for bit."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtr

from cyclefield import ks, montecarlo as mc
from cyclefield.params import load_config
from cyclefield.paths import AgentState
from cyclefield.phases import solve_phase

BASE_CFG = str(Path(__file__).resolve().parent.parent / "base.cfg")


def same(ours, ref):
    """Elementwise ``==``, NaN matching NaN; zeros' signs must match too."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    equal = (ours == ref) & (np.signbit(ours) == np.signbit(ref))
    return np.all(equal | (np.isnan(ours) & np.isnan(ref)))


def neighbours(x, k=8):
    """``x`` and the ``k`` floats on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


def scipy_ks(z):
    """The SciPy block ``compare_to_green`` ran before :mod:`cyclefield.ks`, on sorted standardised values."""
    n = z.size
    cdf = ndtr(z)
    grid = np.arange(1.0, n + 1)
    grid /= n
    above = np.max(grid - cdf)
    grid -= 1.0 / n
    D = float(np.maximum(above, np.max(np.subtract(cdf, grid, out=cdf))))
    return D, float(kolmogorov(D * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))))


def brute_ks(z):
    """The statistic with the scalar :func:`ks.ndtr` at every value."""
    n = z.size
    D = 0.0
    for i, v in enumerate(z.tolist(), start=1):
        phi, top = ks.ndtr(v), i / n
        D = max(D, top - phi, phi - (top - 1.0 / n))
    return D, ks.kolmogorov(D * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)))


class TestNdtr:
    # the branch switches: erf to erfc at |a| = sqrt(2), P/Q to R/S at 8 sqrt(2), underflow at sqrt(2 MAXLOG)
    SWITCHES = [math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * ks._MAXLOG)]

    def test_dense_grid(self):
        rng = np.random.default_rng(20261020)
        a = np.concatenate([
            np.linspace(-40.0, 40.0, 80_001),
            np.linspace(-1.5, 1.5, 30_001),
            rng.standard_normal(20_000),
            *(s * neighbours(1.0, 64) for s in self.SWITCHES),
            *(-s * neighbours(1.0, 64) for s in self.SWITCHES),
        ])
        assert same([ks.ndtr(v) for v in a.tolist()], ndtr(a))

    def test_tails(self):
        a = np.concatenate([-np.geomspace(1.0, 1e300, 3001), np.geomspace(1.0, 1e300, 3001), -np.geomspace(1e-300, 1.0, 3001)])
        assert same([ks.ndtr(v) for v in a.tolist()], ndtr(a))

    @pytest.mark.parametrize("a", [math.inf, -math.inf, 0.0, -0.0, math.nan, 1e-300, -1e-300, 5e-324, -5e-324])
    def test_special_values(self, a):
        assert same(ks.ndtr(a), ndtr(a))

    def test_array_port_is_within_three_ulp(self):
        # normal_ks bounds its statistic with it: the error must sit far below its 1e-14 slack
        rng = np.random.default_rng(7)
        a = np.concatenate([rng.normal(0.0, 1.5, 50_000), np.linspace(-40.0, 40.0, 80_001), [math.inf, -math.inf, 0.0]])
        ref = ndtr(a)
        assert np.all(np.abs(ks._ndtr_array(a) - ref) <= 3.0 * np.spacing(ref))


class TestKolmogorov:
    def test_both_branches(self):
        x = np.concatenate([np.linspace(0.05, 4.0, 40_002), neighbours(ks._KS_CUTOVER, 64)])
        assert same([ks.kolmogorov(v) for v in x.tolist()], kolmogorov(x))

    def test_small_arguments(self):
        # at most pi/sqrt(5968) ~ 0.0406 the survival function is 1; just above, u underflows
        x = np.concatenate([np.linspace(-1.0, 0.1, 20_001), neighbours(ks._KS_TINY, 64), [-math.inf, -0.0]])
        assert same([ks.kolmogorov(v) for v in x.tolist()], kolmogorov(x))

    def test_large_arguments(self):
        x = np.concatenate([np.linspace(4.0, 30.0, 10_001), [1e3, 1e10, 1e300, math.inf]])
        assert same([ks.kolmogorov(v) for v in x.tolist()], kolmogorov(x))

    def test_nan(self):
        assert math.isnan(ks.kolmogorov(math.nan))


def sample(n, kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if kind == "ties":
        x = np.round(x, 1)
    elif kind == "shifted":  # D near 1
        x = x + 9.0
    elif kind == "scaled":
        x = 1.7 * x - 0.4
    elif kind == "infinite":
        x[: min(n, 2)] = [math.inf, -math.inf][: min(n, 2)]
    elif kind == "symmetric":  # mirrored values score equally but for rounding
        x[: n // 2] = -x[n - n // 2:]
    return np.sort(x)


class TestNormalKs:
    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 64, 512, 100_000])
    @pytest.mark.parametrize("kind", ["plain", "ties", "shifted", "scaled", "infinite", "symmetric"])
    def test_equals_brute_force_and_scipy(self, n, kind):
        z = sample(n, kind, seed=n)
        got = ks.normal_ks(z)
        assert got == scipy_ks(z)
        assert got == brute_ks(z)

    def test_random_sizes(self):
        rng = np.random.default_rng(11)
        for n in rng.integers(2, 5000, 60).tolist():
            z = np.sort(rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0))
            assert ks.normal_ks(z) == scipy_ks(z), n

    def test_exact_under_any_port_error_within_three_ulp(self, monkeypatch):
        # mirrored pairs (-a, a) score y and 1 - (1 - y) at their two positions, equal but for
        # rounding; a port off by a few ulp may rank them wrongly, and the re-scoring must not care
        rng = np.random.default_rng(5)

        def port(a):
            exact = np.array([ks.ndtr(v) for v in a.tolist()])
            for _ in range(3):
                exact = np.nextafter(exact, np.where(rng.random(exact.size) < 0.5, -np.inf, np.inf))
            return exact

        monkeypatch.setattr(ks, "_ndtr_array", port)
        for a in rng.uniform(1.5, 6.0, 2000).tolist():
            z = np.array([-a, a])
            assert ks.normal_ks(z) == brute_ks(z), a

    def test_nan_gives_nan(self):
        z = np.sort(np.r_[np.random.default_rng(3).standard_normal(100), math.nan])
        D, p = ks.normal_ks(z)
        assert math.isnan(D) and math.isnan(p) and math.isnan(scipy_ks(z)[1])


def ensemble_at(phase, t, n_paths, seed):
    p = load_config(BASE_CFG)
    sol = solve_phase(p, phase)
    x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
    dt = mc.MCConfig().dt
    return mc.sample_paths(x0, t, sol, p, mc.MCConfig(n_paths=n_paths, dt=dt, seed=seed)), x0, sol, p


def scipy_report_ks(ensemble, x0, sol, p):
    mu, cov = mc.lna_moments(x0, ensemble.t, ensemble.dt, sol, p)
    out = {}
    for idx, (name, x) in enumerate(zip("CKA", (ensemble.C, ensemble.K, ensemble.A))):
        z = np.subtract(x, mu[idx])
        z /= math.sqrt(np.diag(cov)[idx])
        out[name] = scipy_ks(np.sort(z))[1]
    return out


class TestCompareToGreen:
    @pytest.mark.parametrize("phase, t, n_paths", [(0, 0.1, 100_000), (1, 10.0, 512)])
    def test_shipped_settings_keep_scipy_bits(self, phase, t, n_paths):
        ensemble, x0, sol, p = ensemble_at(phase, t, n_paths, seed=0)
        assert mc.compare_to_green(ensemble, x0, sol, p)["ks"] == scipy_report_ks(ensemble, x0, sol, p)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the sample variance of inf
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint(self, bad):
        ensemble, x0, sol, p = ensemble_at(1, 1.0, 256, seed=3)
        ensemble.K[5] = bad
        report = mc.compare_to_green(ensemble, x0, sol, p)
        expected = scipy_report_ks(ensemble, x0, sol, p)
        assert same([report["ks"][c] for c in "CKA"], [expected[c] for c in "CKA"])
        assert math.isnan(report["ks"]["K"]) == math.isnan(bad)
        assert report["pass"] is False
