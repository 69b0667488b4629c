"""Tests for the power/energy model (Table XI)."""

from __future__ import annotations

import pytest

from repro.arch import get_device
from repro.isa import MatrixShape, MmaInstruction
from repro.isa.dtypes import DType
from repro.power import PowerModel
from repro.tensorcore import TensorCoreTimingModel

#: Table XI reference: (device, ab, cd, sparse) -> (watts, tflops/W)
PAPER_TABLE11 = {
    ("A100", DType.FP16, DType.FP16, False): (173.4, 1.79),
    ("A100", DType.FP16, DType.FP16, True): (198.8, 3.13),
    ("A100", DType.TF32, DType.FP32, False): (214.7, 0.71),
    ("A100", DType.INT8, DType.INT32, True): (193.9, 6.24),
    ("H800", DType.FP16, DType.FP16, False): (188.6, 2.62),
    ("H800", DType.FP16, DType.FP32, True): (194.9, 3.70),
    ("H800", DType.INT8, DType.INT32, False): (165.3, 5.92),
    ("RTX4090", DType.FP16, DType.FP16, False): (189.1, 1.89),
    ("RTX4090", DType.TF32, DType.FP32, True): (187.9, 0.95),
    ("RTX4090", DType.INT8, DType.INT32, True): (219.8, 6.47),
}

_SHAPE = {DType.FP16: (16, 8, 16), DType.TF32: (16, 8, 8),
          DType.INT8: (16, 8, 32)}


def _report(dev_name, ab, cd, sparse):
    dev = get_device(dev_name)
    tm = TensorCoreTimingModel(dev)
    instr = MmaInstruction(ab, cd, MatrixShape(*_SHAPE[ab]),
                           sparse=sparse)
    t = tm.mma(instr)
    return PowerModel(dev).report(
        op="mma", ab=ab, cd=cd, tflops=t.throughput_tflops("rand"),
        sparse=sparse,
    )


class TestTable11:
    @pytest.mark.parametrize("key", sorted(PAPER_TABLE11, key=str))
    def test_power_and_efficiency(self, key):
        dev, ab, cd, sparse = key
        watts, eff = PAPER_TABLE11[key]
        rep = _report(dev, ab, cd, sparse)
        assert rep.power_watts == pytest.approx(watts, rel=0.08)
        assert rep.efficiency_tflops_per_watt == pytest.approx(
            eff, rel=0.08)

    def test_h800_dense_efficiency_lead(self):
        pairs = [(DType.FP16, DType.FP16), (DType.FP16, DType.FP32),
                 (DType.TF32, DType.FP32), (DType.INT8, DType.INT32)]
        r_a, r_r = [], []
        for ab, cd in pairs:
            h = _report("H800", ab, cd, False).efficiency_tflops_per_watt
            a = _report("A100", ab, cd, False).efficiency_tflops_per_watt
            r = _report("RTX4090", ab, cd,
                        False).efficiency_tflops_per_watt
            r_a.append(h / a)
            r_r.append(h / r)
        assert sum(r_a) / 4 == pytest.approx(1.60, rel=0.12)
        assert sum(r_r) / 4 == pytest.approx(1.69, rel=0.12)
        # every cell of the grid, dense and sparse, draws real power
        for dev in ("A100", "H800", "RTX4090"):
            for ab, cd in pairs:
                for sparse in (False, True):
                    assert _report(dev, ab, cd, sparse).power_watts > 100


class TestThrottle:
    def test_mma_never_throttles(self, any_device):
        pm = PowerModel(any_device)
        s = pm.throttle_scale(op="mma", ab=DType.FP16, cd=DType.FP16,
                              tflops=500.0)
        assert s == 1.0

    def test_wgmma_rand_throttles_on_h800(self, h800):
        pm = PowerModel(h800)
        s = pm.throttle_scale(
            op="wgmma", ab=DType.FP16, cd=DType.FP32, tflops=728.5,
            operand_bytes_per_s=14.3e12,
        )
        assert 0.85 < s < 0.95

    def test_zero_data_cheaper(self, h800):
        pm = PowerModel(h800)
        kw = dict(op="wgmma", ab=DType.FP16, cd=DType.FP32,
                  tflops=700.0)
        assert pm.dynamic_watts(data="zero", **kw) \
            < pm.dynamic_watts(data="rand", **kw)

    def test_throttled_power_respects_cap(self, h800):
        pm = PowerModel(h800)
        rep = pm.report(op="wgmma", ab=DType.FP16, cd=DType.FP32,
                        tflops=728.5, operand_bytes_per_s=14.3e12)
        assert rep.power_watts <= h800.power_cap_watts * 1.001
        assert rep.throughput_tflops < 728.5

    def test_negative_rate_rejected(self, h800):
        with pytest.raises(ValueError):
            PowerModel(h800).dynamic_watts(
                op="mma", ab=DType.FP16, cd=DType.FP16, tflops=-1.0)

    def test_unknown_pairing_uses_default_energy(self, h800):
        pm = PowerModel(h800)
        w = pm.dynamic_watts(op="mma", ab=DType.BIN1, cd=DType.INT32,
                             tflops=100.0)
        assert w > 0

    def test_sparse_physical_mac_discount(self, h800):
        pm = PowerModel(h800)
        dense = pm.dynamic_watts(op="wgmma", ab=DType.FP16,
                                 cd=DType.FP32, tflops=700.0)
        sparse = pm.dynamic_watts(op="wgmma", ab=DType.FP16,
                                  cd=DType.FP32, tflops=700.0,
                                  sparse=True)
        # same useful FLOPs, half the physical MACs
        assert sparse == pytest.approx(dense / 2)
