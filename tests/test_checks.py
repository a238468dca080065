"""The gradient-check battery that backs the `gradcheck` command."""

import itertools

import numpy as np
import pytest

from geoalign import checks, structure_filter
from geoalign.autodiff import Tensor
from geoalign.checks import LOSS_NAMES, PARAM_GROUPS, GradientCheck, _build_scenario, run_gradient_checks
from geoalign.losses import partition_by_quantile
from geoalign.retrieval import ToyEncoder


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

    def test_probe_that_overflows_tensor_data_is_named(self):
        # Called outside the CLI: the entry point applies the float policy itself.
        before = np.geterr()
        with pytest.raises(ValueError, match=r"^step size 1e\+308 is too large for the "
                                             r"mid_kernel probes \(tensor data must be finite\)$"):
            run_gradient_checks(n_seeds=1, eps=1e308)
        assert np.geterr() == before

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


def count_parts(monkeypatch):
    """Count the calls of each part that ``_losses`` may reuse."""
    counts = dict.fromkeys(("forward", "branches", "weights", "gate"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ToyEncoder, "forward", counted("forward", ToyEncoder.forward))
    monkeypatch.setattr(checks, "scale_branches", counted("branches", checks.scale_branches))
    monkeypatch.setattr(checks, "scale_weights", counted("weights", checks.scale_weights))
    monkeypatch.setattr(structure_filter, "adaptive_gate",
                        counted("gate", structure_filter.adaptive_gate))
    return counts


class TestProbeReuse:
    """Probes reuse the parts their parameter change leaves alone."""

    def test_reused_losses_equal_unshared_losses_bitwise(self, monkeypatch):
        losses = checks._losses
        calls = []

        def recording(params, scenario):
            values = losses(params, scenario)
            calls.append((params, scenario, values))
            return values

        monkeypatch.setattr(checks, "_losses", recording)
        run_gradient_checks(n_seeds=2)
        monkeypatch.undo()
        probes = [(p, s, v) for p, s, v in calls
                  if not any(isinstance(a, Tensor) for a in p.values())]
        # Per scenario: the margin probe and 40 finite-difference probes.
        assert len(probes) == 2 * 41
        for params, scenario, values in probes:
            # Copies share no array with the scenario, so nothing is reused.
            fresh = losses({g: a.copy() for g, a in params.items()}, scenario)
            assert set(fresh) == set(values) == {*LOSS_NAMES, "activation_gap"}
            for name in fresh:
                assert values[name].data.tobytes() == fresh[name].data.tobytes()

    def test_one_scenario_computes_each_part_as_often_as_predicted(self, monkeypatch):
        counts = count_parts(monkeypatch)
        run_gradient_checks(n_seeds=1)
        # Three geometries per _losses call. Each part runs once per geometry
        # in the margin probe, once in the taped pass and once in each of the
        # probes that change it: 12 encoder, 24 branch, 12 head and 4 gate
        # probes of 40. The gate also runs once for the contrast partition.
        assert counts == {"forward": 42, "branches": 78, "weights": 42, "gate": 19}

    def test_taped_pass_rebuilds_every_part(self, monkeypatch):
        seeds = np.random.default_rng(0).integers(0, 2**31 - 1, size=4)
        scenario = next(s for s in map(_build_scenario, map(int, seeds)) if s is not None)
        stored = dict(scenario.prefix)
        assert len(stored) == 4 * 3
        counts = count_parts(monkeypatch)
        checks._analytic_gradients(scenario)
        assert counts == {"forward": 3, "branches": 3, "weights": 3, "gate": 3}
        assert scenario.prefix.keys() == stored.keys()
        assert all(scenario.prefix[key] is part for key, part in stored.items())
