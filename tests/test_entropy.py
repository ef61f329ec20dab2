"""Quantizer, noise proxy, learned density, and CDF-table contracts."""

import copy
from pathlib import Path

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.checkpoint import Checkpoint, model_from_checkpoint
from maecodec.entropy import (DEFAULT_SUPPORT, PROB_FLOOR, TOTAL_FREQ, CdfTable,
                              _grid_pmfs, _quantize_pmfs, add_uniform_noise,
                              bin_probabilities, build_cdf_tables, choose_support,
                              init_density, quantize, rate_bits)
from maecodec.exceptions import ContractViolation, SupportRangeError
from maecodec.training import Adam

import reference_tables
from reference_tables import BoxDensity

BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1] / "benchmarks" / "data"
                    / "desk_mae32_seed0.ckpt")


class TestQuantize:
    def test_rounding_rule(self):
        got = quantize(np.array([0.4, 0.6, -1.5, 1.5, -0.5, 0.5]))
        np.testing.assert_array_equal(got, [0, 1, -2, 2, -1, 1])

    def test_integers_fixed(self):
        v = np.arange(-5, 6, dtype=np.float64)
        np.testing.assert_array_equal(quantize(v), v)

    def test_error_bound(self, rng):
        z = rng.normal(size=10000) * 30
        assert np.abs(z - quantize(z)).max() <= 0.5


class TestNoiseProxy:
    def test_noise_range(self, rng):
        z = T.Tensor(rng.normal(size=(2, 3, 8, 8)))
        zt = add_uniform_noise(z, rng)
        d = zt.data - z.data
        assert (d >= -0.5).all() and (d < 0.5).all()

    def test_monte_carlo_mean(self):
        # mean of 1e6 uniform(-1/2, 1/2) draws: sd of the mean is
        # (1/sqrt(12)) / 1e3 ~ 2.9e-4, so +-0.002 is a ~7 sigma band
        r = np.random.default_rng(7)
        z = T.Tensor(np.zeros((1, 1, 1000, 1000)))
        zt = add_uniform_noise(z, r)
        assert abs(float(zt.data.mean())) < 0.002

    def test_gradient_is_identity(self, rng):
        z = T.Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        with T.GradientTape() as tape:
            loss = T.reduce_sum(add_uniform_noise(z, rng))
        np.testing.assert_array_equal(tape.backward(loss)[z], np.ones_like(z.data))


class TestDensity:
    # 1/256 blended with the floor of the default support's 2L + 1 bins
    BOX_P = (1.0 - (2 * DEFAULT_SUPPORT + 1) * PROB_FLOOR) / 256.0 + PROB_FLOOR

    def test_uniform_box_probabilities(self):
        box = BoxDensity(half_width=128)
        v = T.Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4) - 8)
        p = bin_probabilities(v, box)
        np.testing.assert_allclose(p.data, self.BOX_P, rtol=1e-12)

    def test_rate_of_uniform_box(self):
        # 16 symbols at about 8 bits each under the 1/256 density
        box = BoxDensity(half_width=128)
        v = T.Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4) - 8)
        assert rate_bits(v, box).item() == pytest.approx(-16 * np.log2(self.BOX_P), abs=1e-9)

    def test_floor_holds_everywhere(self):
        density = init_density(2, dtype=np.float64)
        far = T.Tensor(np.array([[-3000.0, -100.0, 0.0, 100.0, 3000.0],
                                 [-250.0, -1.0, 0.5, 1.0, 250.0]]).reshape(1, 2, 1, 5))
        p = bin_probabilities(far, density)
        assert (p.data >= PROB_FLOOR).all()
        assert (p.data <= 1.0).all()

    def test_cumulative_monotone_on_grid(self):
        for seed in (0, 1, 2):
            density = init_density(3, dtype=np.float64, rng=np.random.default_rng(seed))
            t = np.linspace(-300, 300, 10000)
            grid = T.Tensor(np.broadcast_to(t, (3, 1, t.size)).copy())
            c = density.cumulative(grid).data
            assert (np.diff(c, axis=2) >= 0).all()
            assert (c >= 0).all() and (c <= 1).all()
            assert (c[:, :, 0] < 1e-4).all() and (c[:, :, -1] > 1 - 1e-4).all()

    def test_rate_gradient(self):
        from maecodec.entropy import FactorizedDensity

        r = np.random.default_rng(3)
        density = init_density(2, dtype=np.float64, rng=r)
        z = T.Tensor(r.normal(size=(1, 2, 3, 3)) * 3, requires_grad=True)
        named = density.parameters()

        def fn(zv, *ps):
            rebuilt = FactorizedDensity(dict(zip(named, ps)))
            return rate_bits(zv, rebuilt)

        assert T.grad_check(fn, [z] + list(named.values())) < 1e-4

    def test_rate_nonnegative_and_shrinks_with_concentration(self, rng):
        density = init_density(4, dtype=np.float64, rng=np.random.default_rng(5))
        z = T.Tensor(rng.normal(size=(2, 4, 6, 6)) * 4)
        wide = rate_bits(z, density).item()
        tight = rate_bits(T.Tensor(z.data * 0.5), density).item()
        assert wide >= 0 and tight >= 0
        assert tight <= wide


def _burned_in_density(channels=3, steps=400, scale=2.0):
    """Fit the density to centered gaussian samples; a small, fast burn-in."""
    r = np.random.default_rng(11)
    density = init_density(channels, dtype=np.float64, rng=r)
    params = list(density.parameters().values())
    opt = Adam(params)
    for _ in range(steps):
        z = T.Tensor(r.normal(size=(1, channels, 8, 8)) * scale)
        with T.GradientTape() as tape:
            loss = rate_bits(z, density)
        opt.step(tape.backward(loss, params=params), 1e-2)
    return density


class TestTables:
    def test_grid_sum_after_burn_in(self):
        density = _burned_in_density()
        L = DEFAULT_SUPPORT
        grid = np.arange(-L, L + 1, dtype=np.float64)
        vals = T.Tensor(np.broadcast_to(grid, (1, density.channels, 1, grid.size)).copy())
        sums = bin_probabilities(vals, density).data.sum(axis=(0, 2, 3))
        assert (sums >= 1 - 1e-3).all()
        assert (sums <= 1.0 + 1e-12).all()

    def test_uniform_pmf_gives_uniform_frequencies(self):
        cum = _quantize_pmfs(np.full((1, 256), 1.0 / 256.0))[0]
        np.testing.assert_array_equal(np.diff(cum), np.full(256, 256))
        assert cum[-1] == TOTAL_FREQ

    def test_box_density_table_structure(self):
        box = BoxDensity(half_width=128)  # mass fully inside
        table = build_cdf_tables(box, support=128)[0]
        freqs = table.frequencies()
        # 255 interior unit bins at 1/256 -> 256 counts; the two edge bins
        # carry the half bins at +-128 -> 128 counts
        assert freqs[1:-1].min() == 256 and freqs[1:-1].max() == 256
        assert freqs[0] == 128 and freqs[-1] == 128
        assert table.cum[-1] == TOTAL_FREQ
        # computed once, in the constructor, and shared read-only
        np.testing.assert_array_equal(freqs, np.diff(table.cum))
        assert table.frequencies() is freqs and not freqs.flags.writeable

    def test_min_frequency_enforced(self):
        density = _burned_in_density(channels=1, steps=150)
        table = build_cdf_tables(density, DEFAULT_SUPPORT)[0]
        assert table.frequencies().min() >= 1
        assert table.cum[-1] == TOTAL_FREQ

    def test_tables_deterministic(self):
        density = _burned_in_density(channels=2, steps=100)
        # a copy taken before the first build evaluates its own grid
        twin = copy.deepcopy(density)
        t1 = build_cdf_tables(density, DEFAULT_SUPPORT)
        t2 = build_cdf_tables(twin, DEFAULT_SUPPORT)
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.cum, b.cum)

    def test_support_too_small_raises(self):
        density = _burned_in_density(channels=1, steps=100, scale=30.0)
        with pytest.raises(SupportRangeError, match="larger L"):
            build_cdf_tables(density, support=2)

    def test_choose_support_widens(self):
        density = _burned_in_density(channels=1, steps=100)
        assert choose_support(density) == 255  # default is already enough
        wide = _burned_in_density(channels=1, steps=0, scale=1.0)
        assert choose_support(wide) >= 255

    def test_grid_evaluated_once_per_build(self):
        density = _burned_in_density(channels=2, steps=50)
        calls = []
        evaluate = density.cumulative
        density.cumulative = lambda t: calls.append(t.shape) or evaluate(t)
        support = choose_support(density)
        before = build_cdf_tables(density, support)
        assert len(calls) == 1
        # a changed parameter invalidates the kept grid
        density.parameters()["density.bias3"].data += 3.0
        after = build_cdf_tables(density, support)
        assert len(calls) == 2
        assert not np.array_equal(before[0].cum, after[0].cum)


def _deficit(pmf):
    """65536 minus the floor sum (minimum 1): < 0 means counts are taken back."""
    return TOTAL_FREQ - int(np.maximum(np.floor(pmf * TOTAL_FREQ), 1).sum())


def _counts_pmf(counts):
    """A pmf whose floors are exactly ``counts`` (counts / 2^16 is exact)."""
    return np.asarray(counts, dtype=np.float64) / TOTAL_FREQ


class TestQuantizePmfAgainstReference:
    """The pmf quantizer returns the pass-by-pass reference's table."""

    def assert_matches(self, pmf):
        np.testing.assert_array_equal(_quantize_pmfs(pmf[None])[0],
                                      reference_tables.quantize_pmf(pmf))

    @pytest.mark.parametrize("seed", range(5))
    def test_deficit_positive(self, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(511))
        assert _deficit(pmf) > 0
        self.assert_matches(pmf)

    @pytest.mark.parametrize("seed", range(5))
    def test_deficit_zero(self, seed):
        counts = np.random.default_rng(seed).integers(1, 200, size=511)
        counts[0] += TOTAL_FREQ - counts.sum()
        pmf = _counts_pmf(counts)
        assert _deficit(pmf) == 0
        self.assert_matches(pmf)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_partial_pass(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 200, size=511)
        counts[0] += TOTAL_FREQ - counts.sum()
        counts[rng.choice(511, size=40, replace=False)] += 1
        pmf = _counts_pmf(counts)
        assert 0 < -_deficit(pmf) < (counts > 1).sum()
        self.assert_matches(pmf)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_passes_then_tied_partial_pass(self, seed):
        # 150 bins tied at 470 over bins of 3, 2 and 1 in shuffled places:
        # the 2s and 3s run out after the first passes, 35 full passes take
        # 5550 of the 5625, and the last 75 come off the tied 435s by index
        counts = np.array([470] * 150 + [3] * 100 + [2] * 100 + [1] * 161)
        counts = np.random.default_rng(seed).permutation(counts)
        pmf = _counts_pmf(counts)
        assert _deficit(pmf) == -5625
        cum = _quantize_pmfs(pmf[None])[0]
        freqs = np.diff(cum)
        assert sorted(set(freqs[counts == 470])) == [434, 435]
        assert (freqs[counts == 470] == 434).sum() == 75
        self.assert_matches(pmf)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_at_once(self, seed):
        # one call over rows that take the three paths: counts handed out
        # (random and tied residuals), none moved, counts taken back (a
        # partial pass alone, and full passes before a tied partial one);
        # every row must come out as it does alone
        rng = np.random.default_rng(200 + seed)
        n = 511
        exact = rng.integers(1, 200, size=n)
        exact[0] += TOTAL_FREQ - exact.sum()
        partial = exact.copy()
        partial[rng.choice(n, size=40, replace=False)] += 1
        tied = exact.copy()
        tied[np.argmax(tied)] -= 40
        passes = rng.permutation([470] * 150 + [3] * 100 + [2] * 100 + [1] * 161)
        # a peaked pmf whose tail bins are each raised to a count of 1
        peaked = np.exp(-np.abs(np.arange(n) - n // 2) / rng.uniform(1.0, 4.0))
        peaked = np.maximum(peaked / peaked.sum(), PROB_FLOOR)
        rows = [rng.dirichlet(np.ones(n)), (tied + 0.5) / TOTAL_FREQ, _counts_pmf(exact),
                _counts_pmf(partial), _counts_pmf(passes), peaked]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        assert sorted(np.sign([_deficit(pmf) for pmf in rows])) == [-1, -1, -1, 0, 1, 1]
        got = _quantize_pmfs(np.stack(rows))
        assert got.shape == (len(rows), n + 1)
        for cum, pmf in zip(got, rows):
            np.testing.assert_array_equal(cum, reference_tables.quantize_pmf(pmf))

    @pytest.mark.parametrize("mass", [0.4, 1.0, 1.7])
    def test_one_bin(self, mass):
        self.assert_matches(np.array([mass]))

    @pytest.mark.parametrize("support", [0, 1, 255])
    def test_grid_supports(self, support):
        pmfs, _ = _grid_pmfs(init_density(3, dtype=np.float64), support)
        assert pmfs.shape == (3, 2 * support + 1)
        for pmf in pmfs:
            self.assert_matches(pmf)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_floored_pmfs(self, seed):
        rng = np.random.default_rng(100 + seed)
        for n in (2, 3, 17, 64, 511):
            pmf = np.maximum(rng.laplace(scale=rng.uniform(0.5, 20), size=n) ** 2, PROB_FLOOR)
            self.assert_matches(pmf / pmf.sum())

    def test_every_channel_of_a_trained_density(self):
        density = model_from_checkpoint(Checkpoint.load(BENCH_CHECKPOINT)).density
        pmfs, _ = _grid_pmfs(density, choose_support(density))
        assert all(_deficit(pmf) < 0 for pmf in pmfs)
        for pmf in pmfs:
            self.assert_matches(pmf)

    def test_more_bins_than_counts_rejected(self):
        n = TOTAL_FREQ + 1
        with pytest.raises(ContractViolation, match="frequency of 1"):
            _quantize_pmfs(np.full((1, n), 1.0 / n))
