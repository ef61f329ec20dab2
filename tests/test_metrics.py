"""PSNR and MS-SSIM sanity, symmetry, monotonicity, and the dB mappings."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from maecodec import metrics
from maecodec.exceptions import ContractViolation
from maecodec.metrics import DB_CAP, ms_ssim, ms_ssim_db, psnr
from maecodec.synthetic import make_image


class TestPsnr:
    def test_identical_images_hit_cap(self, rng):
        x = rng.random((32, 32, 3))
        assert psnr(x, x) == DB_CAP == 99.0

    def test_quarter_mse_closed_form(self):
        x = np.zeros((8, 8, 3))
        y = np.full((8, 8, 3), 0.5)
        assert psnr(x, y) == pytest.approx(10 * np.log10(4.0), abs=1e-9)

    def test_decreases_with_noise_amplitude(self, rng):
        x = make_image(0, 64, 64)
        values = []
        for amp in (0.01, 0.02, 0.05, 0.1, 0.2):
            noisy = np.clip(x + rng.uniform(-amp, amp, size=x.shape), 0, 1)
            values.append(psnr(x, noisy))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            psnr(rng.random((4, 4, 3)), rng.random((4, 5, 3)))


class TestMsSsim:
    def test_identical_images_give_one(self):
        x = make_image(1, 192, 192)
        assert ms_ssim(x, x) == 1.0
        assert ms_ssim_db(ms_ssim(x, x)) == DB_CAP

    def test_symmetry(self, rng):
        x = make_image(2, 192, 192)
        y = np.clip(x + rng.normal(0, 0.05, size=x.shape), 0, 1)
        assert abs(ms_ssim(x, y) - ms_ssim(y, x)) < 1e-9

    def test_strictly_below_one_for_differing_pair(self, rng):
        x = make_image(3, 192, 192)
        y = x.copy()
        y[10:20, 10:20] = np.clip(y[10:20, 10:20] + 0.3, 0, 1)
        assert ms_ssim(x, y) < 1.0

    def test_decreases_with_noise_amplitude(self, rng):
        x = make_image(4, 192, 192)
        values = []
        for amp in (0.02, 0.05, 0.1, 0.2, 0.4):
            noisy = np.clip(x + rng.uniform(-amp, amp, size=x.shape), 0, 1)
            values.append(ms_ssim(x, noisy))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_small_image_reduces_scales_with_warning(self, rng):
        x = make_image(5, 96, 96)
        y = np.clip(x + rng.normal(0, 0.03, size=x.shape), 0, 1)
        with pytest.warns(UserWarning, match="scales"):
            v = ms_ssim(x, y)
        assert 0.0 <= v < 1.0

    def test_min_side_176_uses_five_scales(self, rng):
        import warnings

        x = make_image(6, 176, 200)
        y = np.clip(x + rng.normal(0, 0.03, size=x.shape), 0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms_ssim(x, y)  # no warning means all five scales ran

    def test_shape_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            ms_ssim(rng.random((32, 32, 3)), rng.random((32, 48, 3)))

    @pytest.mark.parametrize("shape", [(8, 9), (10, 40), (40, 10)])
    def test_side_below_the_window_rejected(self, rng, shape):
        x = rng.random(shape + (3,))
        with pytest.raises(ContractViolation,
                           match=f"at least 11 px .*, got {shape[0]}x{shape[1]}"):
            ms_ssim(x, x)

    def test_window_sized_image_scores(self, rng):
        x = rng.random((11, 11, 3))
        y = np.clip(x + rng.normal(0, 0.03, size=x.shape), 0, 1)
        with pytest.warns(UserWarning, match="using 1"):
            v = ms_ssim(x, y)
        assert 0.0 < v < 1.0

    @pytest.mark.parametrize("shape", [(11, 11), (23, 17), (37, 51)])
    def test_separable_filter_matches_the_window_sum(self, rng, shape):
        maps = rng.random((3,) + shape)
        window = np.outer(metrics._GAUSS, metrics._GAUSS)
        assert window.shape == (11, 11) and window.sum() == pytest.approx(1.0, abs=1e-15)
        direct = (sliding_window_view(maps, window.shape, axis=(1, 2)) * window).sum(axis=(3, 4))
        got = metrics._filtered(maps)
        assert got.shape == direct.shape == (3, shape[0] - 10, shape[1] - 10)
        assert np.abs(got - direct).max() <= 1e-12

    def test_bits_pinned(self):
        # a change to how MS-SSIM is computed or loaded that claims the same
        # bits fails here: two synthetic images, and one with uniform noise
        x, y = make_image(90, 192, 192), make_image(91, 192, 192)
        noisy = np.clip(x + np.random.default_rng(92).uniform(-0.05, 0.05, x.shape), 0, 1)
        assert ms_ssim(x, y).hex() == "0x1.04cef3884e7b5p-2"
        assert ms_ssim(x, noisy).hex() == "0x1.f827f84e28a4ep-1"


class TestDbMap:
    def test_formula(self):
        assert ms_ssim_db(0.9) == pytest.approx(10.0, abs=1e-9)
        assert ms_ssim_db(0.99) == pytest.approx(20.0, abs=1e-9)

    def test_cap(self):
        assert ms_ssim_db(1.0) == DB_CAP
        assert ms_ssim_db(1.0 - 1e-12) == pytest.approx(DB_CAP, abs=21)
