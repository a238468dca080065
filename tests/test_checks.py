"""The gradient-check battery that backs the `gradcheck` command."""

import itertools

import numpy as np
import pytest

from geoalign.checks import LOSS_NAMES, PARAM_GROUPS, GradientCheck, _build_scenario, run_gradient_checks
from geoalign.losses import partition_by_quantile


class TestRunGradientChecks:
    def test_covers_every_group_and_loss(self):
        rows = run_gradient_checks(n_seeds=2)
        assert len(rows) == len(PARAM_GROUPS) * len(LOSS_NAMES) == 24
        assert {(r.group, r.loss) for r in rows} == {
            (g, l) for g in PARAM_GROUPS for l in LOSS_NAMES
        }
        assert set(LOSS_NAMES) == {"contrast", "triplet", "total"}
        assert set(PARAM_GROUPS) == {
            "mid_kernel", "far_kernel", "head_weights", "head_bias",
            "gate_gain", "gate_bias", "enc_dw1", "enc_pw2",
        }

    def test_rows_are_sorted_and_populated(self):
        rows = run_gradient_checks(n_seeds=2)
        keys = [(r.group, r.loss) for r in rows]
        assert keys == [(g, l) for g in PARAM_GROUPS for l in LOSS_NAMES]
        for row in rows:
            assert isinstance(row, GradientCheck)
            assert row.n_evals > 0
            assert 0.0 <= row.max_rel_err < 1e-4

    def test_deterministic(self):
        assert run_gradient_checks(n_seeds=2) == run_gradient_checks(n_seeds=2)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_gradient_checks(n_seeds=0)
        # 1e300 is finite but its probes overflow the forward pass.
        for eps in (0.0, float("nan"), float("inf"), 1e300):
            with pytest.raises(ValueError, match="step size"):
                run_gradient_checks(eps=eps)

    def test_contrast_partition_matches_the_closed_form_mask(self):
        # The default battery: base seed 0, the first 20 scenarios that build.
        seeds = np.random.default_rng(0).integers(0, 2**31 - 1, size=80)
        built = (_build_scenario(int(x)) for x in seeds)
        scenarios = list(itertools.islice((s for s in built if s is not None), 20))
        assert len(scenarios) == 20
        for scenario in scenarios:
            geometry = scenario.geometries[0].mask_geometry
            gain = float(scenario.params["gate_gain"])
            bias = float(scenario.params["gate_bias"])
            closed_form = 1.0 / (1.0 + np.exp(-(gain * geometry.consistency + bias)))
            closed_form[geometry.partition.edge_mask] = 0.5
            expected = partition_by_quantile(closed_form)
            assert np.array_equal(scenario.contrast_partition.stable, expected.stable)
            assert np.array_equal(scenario.contrast_partition.unstable, expected.unstable)
