"""Tests for the delayed-scaling FP8 recipe."""

from __future__ import annotations

import numpy as np
import pytest
from repro.numerics import E4M3
from repro.te.recipe import DelayedScaling

class TestDelayedScaling:
    def test_first_quantize_uses_unit_scale(self):
        r = DelayedScaling()
        qt = r.quantize(np.array([100.0]))
        assert qt.scale == 1.0          # no history yet

    def test_scale_follows_history(self):
        r = DelayedScaling()
        r.observe(np.array([448.0]))
        assert r.current_scale() == pytest.approx(1.0)
        r.observe(np.array([896.0]))
        assert r.current_scale() == pytest.approx(2.0)

    def test_window_forgets(self):
        r = DelayedScaling(amax_history_len=2)
        r.observe(np.array([896.0]))
        r.observe(np.array([1.0]))
        r.observe(np.array([1.0]))      # 896 falls out of the window
        assert r.current_scale() < 0.01

    def test_most_recent_mode(self):
        r = DelayedScaling(amax_compute="most_recent")
        r.observe(np.array([896.0]))
        r.observe(np.array([448.0]))
        assert r.current_scale() == pytest.approx(1.0)

    def test_staleness_saturates(self):
        """Activations doubling step over step: the delayed scale
        lags one step behind, so the biggest values clip."""
        r = DelayedScaling(amax_history_len=1)
        r.observe(np.array([1.0]))
        grown = np.array([2.0, 1.0, 0.5])
        assert r.saturation_fraction(grown) > 0
        qt = r.quantize(grown)
        back = qt.dequantize()
        assert back[0] < 2.0            # clipped at scale·448…
        # next step the history caught up
        assert r.current_scale() == pytest.approx(
            2.0 / E4M3.max_finite)

    def test_margin_buys_headroom(self):
        tight = DelayedScaling(amax_history_len=1, margin=0.0)
        roomy = DelayedScaling(amax_history_len=1, margin=1.0)
        for r in (tight, roomy):
            r.observe(np.array([448.0]))
        grown = np.array([700.0])
        assert tight.saturation_fraction(grown) == 1.0
        assert roomy.saturation_fraction(grown) == 0.0

    def test_quantize_then_observe_order(self):
        """TE order: the current tensor's amax affects the NEXT step,
        not its own quantisation."""
        r = DelayedScaling(amax_history_len=4)
        r.quantize(np.array([10.0]))
        assert r.history == [10.0]
        qt = r.quantize(np.array([20.0]))
        # scale derived from the 10.0 observation only
        assert qt.scale == pytest.approx(10.0 / E4M3.max_finite)

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayedScaling(amax_history_len=0)
        with pytest.raises(ValueError):
            DelayedScaling(margin=-1)

    def test_zero_and_empty_inputs(self):
        r = DelayedScaling()
        r.observe(np.zeros(4))
        assert r.current_scale() == 1.0
        assert r.saturation_fraction(np.array([])) == 0.0
