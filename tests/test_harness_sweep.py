"""Tests for the Amdahl serial-fraction fit."""

import pytest

from repro.arch import shared_mesh
from repro.harness import metrics


class TestAmdahlFit:
    def test_recovers_serial_fraction(self):
        s_true = 0.2
        curve = {n: 1.0 / (s_true + (1 - s_true) / n)
                 for n in (1, 2, 4, 8, 16, 64)}
        s, rmse = metrics.amdahl_fit(curve)
        assert s == pytest.approx(s_true, abs=1e-4)
        assert rmse < 1e-6

    def test_fully_parallel(self):
        curve = {n: float(n) for n in (1, 2, 4, 8)}
        s, rmse = metrics.amdahl_fit(curve)
        assert s == pytest.approx(0.0, abs=1e-4)

    def test_fully_serial(self):
        curve = {n: 1.0 for n in (1, 2, 4, 8)}
        s, _ = metrics.amdahl_fit(curve)
        assert s == pytest.approx(1.0, abs=1e-3)

    def test_superlinear_flagged_by_residual(self):
        curve = {1: 1.0, 4: 30.0, 16: 200.0}
        s, rmse = metrics.amdahl_fit(curve)
        assert rmse > 1.0  # Amdahl cannot explain super-linearity

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            metrics.amdahl_fit({1: 1.0})

    def test_quicksort_serial_fraction_plausible(self):
        """The measured quicksort curve should fit a serial fraction in
        the ballpark its critical path predicts (2/log2(n) ~ 0.2)."""
        import math

        from repro.harness import vt_speedup_curve

        curve = vt_speedup_curve("quicksort", shared_mesh, (1, 4, 16),
                                 scale="small", seeds=(0,))
        s, _ = metrics.amdahl_fit(curve)
        n = 1000
        predicted = 2 / math.log2(n)
        assert 0.3 * predicted < s < 4 * predicted

