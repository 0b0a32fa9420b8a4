"""The vectorised endpoint-CSV rows against the ``%`` template, byte for byte."""

import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefield import cli, export, montecarlo
from cyclefield.params import load_config
from cyclefield.paths import AgentState
from cyclefield.phases import solve_phase


def oracle(first, C, K, A):
    return "".join(
        export.ROW % (first + i, c, k, a)
        for i, (c, k, a) in enumerate(zip(np.asarray(C).tolist(), np.asarray(K).tolist(), np.asarray(A).tolist()))
    )


def check(first, C, K, A):
    assert export.rows(first, C, K, A) == oracle(first, C, K, A)


def _ensemble(C, K, A):
    return SimpleNamespace(C=np.asarray(C, float), K=np.asarray(K, float), A=np.asarray(A, float), n_paths=len(C))


def _bits(rng, n, exponents=None):
    """``n`` doubles from random bit patterns; ``exponents`` bounds the binary exponent."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    if exponents is not None:
        e = rng.integers(1023 + exponents[0], 1023 + exponents[1], size=n, dtype=np.uint64)
        bits = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (e << np.uint64(52))
    return bits.view(np.float64)


class TestOracle:
    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=40),
        st.integers(0, 10**15),
    )
    def test_any_float_triples(self, triples, first):
        C, K, A = (np.array(col) for col in zip(*triples))
        check(first, C, K, A)

    def test_random_bit_patterns_over_all_binades(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            check(int(rng.integers(0, 10**9)), *_bits(rng, 3 * 8192).reshape(3, -1))

    def test_random_bit_patterns_over_fixed_notation_binades(self):
        # 2**-15 ~ 3e-5 to 2**57 ~ 1.4e17 straddles [1e-4, 1e17)
        rng = np.random.default_rng(21)
        for _ in range(10):
            check(int(rng.integers(0, 10**9)), *_bits(rng, 3 * 8192, (-15, 58)).reshape(3, -1))

    def test_short_decimals_strip_their_zeros(self):
        # 1 to 16 significant digits, from about 1e-20 to 1e32: most fractions end in zeros
        rng = np.random.default_rng(26)
        for _ in range(4):
            digits = rng.integers(1, 10 ** rng.integers(1, 17, size=3 * 8192))
            values = digits * 10.0 ** rng.integers(-20, 17, size=digits.size) * rng.choice([-1, 1], size=digits.size)
            check(0, *values.reshape(3, -1))

    def test_exact_ties_round_half_to_even(self):
        text = export.rows(0, [1000000000000000.25], [1000000000000000.75], [-1000000000000000.25])
        assert text == "0,1000000000000000.2,1000000000000000.8,-1000000000000000.2\n"
        check(0, [1000000000000000.25], [1000000000000000.75], [-1000000000000000.25])

    def test_neighbours_of_powers_of_ten(self):
        powers = 10.0 ** np.arange(-5, 19)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        check(0, values, values[::-1], np.roll(values, 7))

    def test_carry_to_1e17(self):
        assert export.rows(5, [9.9999999999999998e16], [99999999999999984.0], [1.0]) == (
            "5,1e+17,99999999999999984,1\n"
        )

    def test_zeros_subnormals_and_negatives(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5, -0.00012, -123456.789]
        check(0, values, values[::-1], values[3:] + values[:3])

    def test_trailing_zeros_and_integers(self):
        values = [1.0, 10.0, 1200.0, 0.5, 0.25, 1e16, 1.2e16, 123.0, 0.001, 0.0001, 1234567890123456.0]
        check(0, values, [-v for v in values], values[::-1])

    def test_special_rows_at_block_edges(self):
        rng = np.random.default_rng(22)
        C, K, A = rng.normal(10, 1, (3, 40))
        C[0], K[-1], A[19], A[20] = np.nan, np.inf, 0.0, 1e-300
        check(0, C, K, A)
        check(0, [np.nan], [1.0], [2.0])
        check(0, [-np.inf, 1.0], [0.0, 2.0], [1.0, -0.0])

    def test_special_rows_at_export_block_edges(self, monkeypatch):
        rng = np.random.default_rng(23)
        C, K, A = rng.normal(1, 0.1, (3, 12))
        C[2], K[3], A[8], C[11] = np.nan, -0.0, 1e20, 1e-7  # the last and first rows of blocks of 3
        monkeypatch.setattr(cli, "_EXPORT_ROWS", 3)
        assert "".join(cli._ensemble_csv(_ensemble(C, K, A))) == "path_id,C,K,A\n" + oracle(0, C, K, A)

    def test_ids_crossing_group_widths(self):
        rng = np.random.default_rng(24)
        C, K, A = rng.normal(10, 1, (3, 10))
        for first in (0, 9995, 99995, 10**8 - 5, 10**12 - 3, 10**15 + 1):
            check(first, C, K, A)


def test_negative_capital_ensemble_export():
    # base.cfg, phase 1, t = 100: 94 of 256 paths visit K <= 0; K spans about
    # -12,137 to 10,241 and C -828 to 1,252, six decimal exponents in all
    p = load_config(str(Path(__file__).resolve().parent.parent / "base.cfg"))
    sol = solve_phase(p, 1)
    x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
    ens = montecarlo.sample_paths(x0, 100.0, sol, p, montecarlo.MCConfig(n_paths=256, seed=3))
    assert ens.n_negative_K == 94
    exponents = np.floor(np.log10(np.abs(np.concatenate([ens.C, ens.K, ens.A]))))
    assert len(np.unique(exponents)) == 6
    assert "".join(cli._ensemble_csv(ens)) == "path_id,C,K,A\n" + oracle(0, ens.C, ens.K, ens.A)


def test_export_memory_grows_with_the_block_not_the_rows(tmp_path):
    def peak(n_rows):
        rng = np.random.default_rng(25)
        ens = _ensemble(*rng.normal(10, 1, (3, n_rows)))
        tracemalloc.start()
        try:
            cli._emit(cli._ensemble_csv(ens), str(tmp_path / "e.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(cli._EXPORT_ROWS)  # loads the kernel and builds its digit table
    small, large = peak(4 * cli._EXPORT_ROWS), peak(16 * cli._EXPORT_ROWS)
    assert abs(large - small) <= 16 * 1024, (small, large)
