"""The gradient-check battery that backs the `gradcheck` command."""

import pytest

from geoalign.checks import LOSS_NAMES, PARAM_GROUPS, GradientCheck, run_gradient_checks


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
        for eps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step size"):
                run_gradient_checks(eps=eps)
