"""Unit tests for the device models: technologies, P_DF, array costs."""

import json
import math
import pathlib

import pytest

from repro.devices import (
    PCM,
    RERAM,
    STT_MRAM,
    TECHNOLOGIES,
    ArrayCostModel,
    Technology,
    application_failure_probability,
    composite_state,
    decision_failure_probability,
    get_technology,
    overlap_curve,
)
from repro.dfg import OpType
from repro.errors import DeviceError


class TestTechnology:
    def test_stt_mram_resistances_from_table1(self):
        # RA = 7.5 ohm.um^2, r = 20 nm  ->  R_P = RA / (pi r^2) ~ 5.97 kOhm
        assert STT_MRAM.r_lrs_ohm == pytest.approx(5968.3, rel=1e-3)
        # TMR 150% -> R_AP = 2.5 R_P
        assert STT_MRAM.r_hrs_ohm == pytest.approx(2.5 * STT_MRAM.r_lrs_ohm)
        assert STT_MRAM.hrs_lrs_ratio == pytest.approx(2.5)

    def test_reram_window_much_wider_than_stt(self):
        assert RERAM.hrs_lrs_ratio > 10 * STT_MRAM.hrs_lrs_ratio

    def test_conductance_helpers(self):
        assert RERAM.g_lrs == pytest.approx(1 / RERAM.r_lrs_ohm)
        assert RERAM.sigma_g_lrs == pytest.approx(
            RERAM.sigma_rel_lrs / RERAM.r_lrs_ohm)

    def test_get_technology_lookup(self):
        assert get_technology("ReRAM") is RERAM
        assert get_technology("stt-mram") is STT_MRAM
        assert get_technology("pcm") is PCM
        with pytest.raises(DeviceError):
            get_technology("dram")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DeviceError):
            Technology("bad", r_lrs_ohm=1e4, r_hrs_ohm=5e3,  # HRS < LRS
                       sigma_rel_lrs=0.05, sigma_rel_hrs=0.05,
                       sigma_ref_siemens=0, write_latency_ns=10,
                       write_energy_pj_per_bit=1, read_latency_ns=2,
                       read_energy_pj_per_bit=0.2)
        with pytest.raises(DeviceError):
            Technology("bad", r_lrs_ohm=5e3, r_hrs_ohm=1e4,
                       sigma_rel_lrs=1.5, sigma_rel_hrs=0.05,
                       sigma_ref_siemens=0, write_latency_ns=10,
                       write_energy_pj_per_bit=1, read_latency_ns=2,
                       read_energy_pj_per_bit=0.2)

    def test_with_variability(self):
        noisy = RERAM.with_variability(0.2, 0.4)
        assert noisy.sigma_rel_lrs == 0.2
        assert noisy.name == RERAM.name


class TestCompositeStates:
    def test_mean_interpolates_between_pure_states(self):
        k = 4
        s0 = composite_state(RERAM, k, 0)
        sk = composite_state(RERAM, k, k)
        assert s0.mu == pytest.approx(k * RERAM.g_lrs)
        assert sk.mu == pytest.approx(k * RERAM.g_hrs)
        assert s0.mu > sk.mu  # more HRS cells -> lower conductance

    def test_adjacent_gap_constant(self):
        gaps = []
        for j in range(4):
            a = composite_state(RERAM, 4, j)
            b = composite_state(RERAM, 4, j + 1)
            gaps.append(a.mu - b.mu)
        for g in gaps:
            assert g == pytest.approx(RERAM.g_lrs - RERAM.g_hrs)

    def test_sigma_grows_with_k(self):
        s2 = composite_state(STT_MRAM, 2, 0)
        s4 = composite_state(STT_MRAM, 4, 0)
        s8 = composite_state(STT_MRAM, 8, 0)
        assert s2.sigma < s4.sigma < s8.sigma

    def test_lrs_states_noisier_than_hrs_states(self):
        # absolute conductance noise is larger in the low-resistance state
        all_lrs = composite_state(RERAM, 4, 0)
        all_hrs = composite_state(RERAM, 4, 4)
        assert all_lrs.sigma > all_hrs.sigma

    def test_bad_args_rejected(self):
        with pytest.raises(DeviceError):
            composite_state(RERAM, 0, 0)
        with pytest.raises(DeviceError):
            composite_state(RERAM, 2, 3)


class TestDecisionFailure:
    def test_more_rows_less_reliable(self):
        for op in (OpType.AND, OpType.OR, OpType.XOR):
            p2 = decision_failure_probability(STT_MRAM, op, 2)
            p4 = decision_failure_probability(STT_MRAM, op, 4)
            p8 = decision_failure_probability(STT_MRAM, op, 8)
            assert p2 < p4 < p8, op

    def test_wider_window_more_reliable(self):
        for op in (OpType.AND, OpType.OR, OpType.XOR):
            assert (decision_failure_probability(RERAM, op, 2)
                    < decision_failure_probability(STT_MRAM, op, 2))

    def test_xor_or_worse_than_and_on_stt(self):
        """The paper's motivation for NAND-lowering on STT-MRAM."""
        p_and = decision_failure_probability(STT_MRAM, OpType.AND, 2)
        p_or = decision_failure_probability(STT_MRAM, OpType.OR, 2)
        p_xor = decision_failure_probability(STT_MRAM, OpType.XOR, 2)
        assert p_and < p_or
        assert p_and < p_xor
        assert p_xor >= p_or  # XOR needs both boundaries

    def test_inverted_ops_share_boundaries(self):
        for base, inv in ((OpType.AND, OpType.NAND), (OpType.OR, OpType.NOR),
                          (OpType.XOR, OpType.XNOR)):
            assert (decision_failure_probability(STT_MRAM, base, 3)
                    == decision_failure_probability(STT_MRAM, inv, 3))

    def test_calibration_bands(self):
        """The spreads are calibrated to the bands the paper reports."""
        p_nand_stt = decision_failure_probability(STT_MRAM, OpType.NAND, 2)
        p_xor_stt = decision_failure_probability(STT_MRAM, OpType.XOR, 2)
        p_xor_reram = decision_failure_probability(RERAM, OpType.XOR, 2)
        assert 1e-7 < p_nand_stt < 1e-3   # 'suitable for error-tolerant apps'
        assert p_xor_stt > 1e-4           # 'much more unreliable'
        assert p_xor_reram < 1e-7         # 'highly reliable'

    def test_single_row_read_is_very_reliable(self):
        p = decision_failure_probability(STT_MRAM, OpType.NOT, 1)
        assert p < decision_failure_probability(STT_MRAM, OpType.AND, 2)
        assert p < 1e-6

    def test_k_above_technology_limit_rejected(self):
        with pytest.raises(DeviceError):
            decision_failure_probability(STT_MRAM, OpType.AND,
                                         STT_MRAM.max_activated_rows + 1)

    def test_probability_bounded(self):
        noisy = STT_MRAM.with_variability(0.4, 0.4)
        p = decision_failure_probability(noisy, OpType.XOR, 8)
        assert 0.0 <= p <= 1.0


class TestApplicationFailure:
    def test_empty_application_never_fails(self):
        assert application_failure_probability([]) == 0.0

    def test_single_op(self):
        assert application_failure_probability([0.25]) == pytest.approx(0.25)

    def test_union_formula(self):
        p = application_failure_probability([0.1, 0.2])
        assert p == pytest.approx(1 - 0.9 * 0.8)

    def test_many_tiny_probabilities_accumulate(self):
        p = application_failure_probability([1e-9] * 1_000_000)
        assert p == pytest.approx(-math.expm1(1_000_000 * math.log1p(-1e-9)))
        assert p > 0

    def test_certain_failure_dominates(self):
        assert application_failure_probability([0.0, 1.0, 0.0]) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DeviceError):
            application_failure_probability([1.5])


class TestOverlapCurve:
    def test_fig2b_series_shape(self):
        curves = overlap_curve(STT_MRAM, 2, points=64)
        assert set(curves) == {"conductance", "state_0", "state_1", "state_2"}
        assert len(curves["conductance"]) == 64
        # each pdf peaks near its composite mean
        xs = curves["conductance"]
        peak0 = xs[max(range(64), key=lambda i: curves["state_0"][i])]
        peak2 = xs[max(range(64), key=lambda i: curves["state_2"][i])]
        assert peak0 > peak2  # all-LRS has the higher conductance


class TestFailureGolden:
    """P_DF and Fig. 2b densities pinned to values recorded with
    ``scipy.stats.norm``; the values reach ~1e-99, so the check is
    relative."""

    GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden"
                         / "p_df_v1.json").read_text())

    def test_every_tech_op_and_k(self):
        cases = {f"{name}/{op.value}/{k}": (tech, op, k)
                 for name, tech in TECHNOLOGIES.items() for op in OpType
                 for k in range(1, tech.max_activated_rows + 1)}
        assert set(cases) == set(self.GOLDEN["p_df"])
        for case, (tech, op, k) in cases.items():
            assert math.isclose(decision_failure_probability(tech, op, k),
                                self.GOLDEN["p_df"][case],
                                rel_tol=1e-12), case

    def test_overlap_curves(self):
        for case, golden in self.GOLDEN["overlap_curve"].items():
            name, k = case.split("/")
            curves = overlap_curve(TECHNOLOGIES[name], int(k), points=8)
            assert set(curves) == set(golden), case
            for series, values in golden.items():
                assert all(math.isclose(got, want, rel_tol=1e-12)
                           for got, want in zip(curves[series], values,
                                                strict=True)), (case, series)


class TestArrayCostModel:
    def test_latency_grows_with_rows(self):
        small = ArrayCostModel(RERAM, 128, 128)
        big = ArrayCostModel(RERAM, 1024, 1024)
        assert big.read_latency_ns() > small.read_latency_ns()
        assert big.write_latency_ns() > small.write_latency_ns()

    def test_write_much_slower_than_read_on_reram(self):
        m = ArrayCostModel(RERAM, 512, 512)
        assert m.write_latency_ns() > 5 * m.read_latency_ns()

    def test_reram_writes_slower_than_stt(self):
        r = ArrayCostModel(RERAM, 512, 512)
        s = ArrayCostModel(STT_MRAM, 512, 512)
        assert r.write_latency_ns() > s.write_latency_ns()
        assert r.read_latency_ns() == s.read_latency_ns()

    def test_mra_read_slightly_slower(self):
        m = ArrayCostModel(STT_MRAM, 512, 512)
        assert m.read_latency_ns(4) > m.read_latency_ns(2) > m.read_latency_ns(1)

    def test_energy_scales_with_lanes_and_cols(self):
        m = ArrayCostModel(STT_MRAM, 512, 512)
        assert m.read_energy_pj(4, 2, 2048) > m.read_energy_pj(4, 2, 512)
        assert m.read_energy_pj(8, 2, 512) > m.read_energy_pj(2, 2, 512)
        assert m.write_energy_pj(4, 512) > m.read_energy_pj(4, 2, 512)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(DeviceError):
            ArrayCostModel(RERAM, 0, 128)
        m = ArrayCostModel(RERAM, 128, 128)
        with pytest.raises(DeviceError):
            m.read_latency_ns(0)
