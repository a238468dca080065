"""The gradient-check battery that backs the `gradcheck` command."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from geoalign import autodiff, checks, losses as losses_module, retrieval, structure_filter
from geoalign.autodiff import (
    Tape,
    Tensor,
    adaptive_avg_pool,
    float_policy,
    l2_normalize,
    reshape,
)
from geoalign.checks import LOSS_NAMES, PARAM_GROUPS, GradientCheck, _build_scenario, run_gradient_checks
from geoalign.losses import (
    activation_map,
    aggregate_activation,
    contrast_hinge,
    partition_by_quantile,
    soft_margin_triplet,
    total_loss,
)
from geoalign.retrieval import ToyEncoder, standardize_stack
from geoalign.scale_fusion import (
    FusionParams,
    depth_feature_stack,
    fuse,
    scale_branches,
    scale_weights,
)
from geoalign.scenes import facade_heavy_spec, render_oblique, render_ortho
from geoalign.structure_filter import GateParams, MaskGeometry, align_depth, modulate


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

    @pytest.mark.parametrize("eps, group", [(1e-320, "mid_kernel"), (1e-16, "gate_gain")])
    def test_step_below_a_coordinates_float_spacing_is_named(self, eps, group):
        # Such a step leaves a coordinate unchanged, so its finite difference
        # would read 0 and blame a correct analytic gradient. 1e-16 moves
        # every coordinate near 0.1 but not gate_gain, near 5.
        with pytest.raises(ValueError, match=rf"^step size {eps} is too small for the "
                                             rf"{group} probes \(a shifted coordinate "
                                             r"is unchanged\)$"):
            run_gradient_checks(n_seeds=1, eps=eps)

    def test_a_failing_batch_names_its_first_failing_probe(self):
        scenario = _build_scenario(int(np.random.default_rng(0).integers(0, 2**31 - 1)))
        base = scenario.params["mid_kernel"]
        probes = [base.copy() for _ in range(3)]
        # Alone, the second probe fails at the triplet's unit-length check and
        # the third one earlier, in l2_normalize's divide, where the batch of
        # all three stops.
        probes[1].flat[0] += 1e300
        probes[2].flat[0] += 1e308
        prefix = r"^step size 1e\+300 is too large for the mid_kernel probes "
        with float_policy():
            with pytest.raises(ValueError, match=prefix + r"\(tensor data must be finite\)$"):
                checks._run_probes(scenario, "mid_kernel", probes[2:], 1e300)
            with pytest.raises(ValueError, match=prefix + r"\(anchor must be unit length, "
                                                          r"got norm 0\.0\)$"):
                checks._run_probes(scenario, "mid_kernel", probes, 1e300)

    def test_every_tape_is_freed_without_the_cycle_collector(self, monkeypatch):
        built = []
        init = autodiff.Tape.__init__

        def recording(tape):
            init(tape)
            built.append(weakref.ref(tape))

        monkeypatch.setattr(autodiff.Tape, "__init__", recording)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_gradient_checks(n_seeds=1)
            assert built and all(ref() is None for ref in built)
        finally:
            if enabled:
                gc.enable()

    def test_contrast_partition_matches_the_closed_form_mask(self):
        # The default battery: base seed 0, 20 scenarios.
        seeds = np.random.default_rng(0).integers(0, 2**31 - 1, size=20)
        for scenario in map(_build_scenario, map(int, seeds)):
            # Geometry 0, the anchor, of the stacked geometry.
            consistency = scenario.geometry.consistency[0]
            edge_mask = scenario.geometry.partition.edge_mask[0]
            gain = float(scenario.params["gate_gain"])
            bias = float(scenario.params["gate_bias"])
            closed_form = 1.0 / (1.0 + np.exp(-(gain * consistency + bias)))
            closed_form[edge_mask] = 0.5
            expected = partition_by_quantile(closed_form)
            assert np.array_equal(scenario.contrast_partition.stable, expected.stable)
            assert np.array_equal(scenario.contrast_partition.unstable, expected.unstable)

    def test_contrast_regions_keep_at_least_ten_pixels(self):
        # Each region takes 19 of the anchor's 64 pixels, less the ties at its
        # threshold; the edge pixels, all at 0.5, are the only systematic tie.
        seeds = np.random.default_rng(0).integers(0, 2**31 - 1, size=200)
        for seed in map(int, seeds):
            scenario = _build_scenario(seed)
            assert scenario.geometry.partition.edge_mask[0].sum() <= 10, seed
            assert scenario.contrast_partition.n_stable >= 10, seed
            assert scenario.contrast_partition.n_unstable >= 10, seed


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

        def recording(param_sets, scenario):
            values = losses(param_sets, scenario)
            calls.append((param_sets, scenario, values))
            return values

        monkeypatch.setattr(checks, "_losses", recording)
        run_gradient_checks(n_seeds=2)
        monkeypatch.undo()
        batches = [(p, s, v) for p, s, v in calls
                   if not any(isinstance(a, Tensor) for a in p[0].values())]
        # Per scenario: the margin pass (one parameter set) and one batch per
        # parameter group (40 sets in all).
        assert len(batches) == 2 * 9
        assert sum(len(p) for p, _, _ in batches) == 2 * 41
        for param_sets, scenario, (values, reports) in batches:
            # Copies share no array with the scenario, so nothing is reused.
            fresh, fresh_reports = losses(
                [{g: a.copy() for g, a in params.items()} for params in param_sets], scenario)
            assert set(fresh) == set(values) == set(LOSS_NAMES)
            for name in fresh:
                assert values[name].data.tobytes() == fresh[name].data.tobytes()
            assert reports == fresh_reports

    def test_one_scenario_computes_each_part_as_often_as_predicted(self, monkeypatch):
        counts = count_parts(monkeypatch)
        run_gradient_checks(n_seeds=1)
        # One batch of three geometries per _losses call. Each part runs once
        # in the margin probe, once in the taped pass and once in each of the
        # probes that change it: 12 encoder, 24 branch, 12 head and 4 gate
        # probes of 40. The gate also runs once for the contrast partition.
        assert counts == {"forward": 14, "branches": 26, "weights": 14, "gate": 7}

    def test_taped_pass_rebuilds_every_part(self, monkeypatch):
        scenario = _build_scenario(int(np.random.default_rng(0).integers(0, 2**31 - 1)))
        stored = dict(scenario.prefix)
        assert set(stored) == {"features", "branches", "weights", "mask"}
        counts = count_parts(monkeypatch)
        checks._analytic_gradients(scenario)
        assert counts == {"forward": 1, "branches": 1, "weights": 1, "gate": 1}
        assert scenario.prefix.keys() == stored.keys()
        assert all(scenario.prefix[key] is part for key, part in stored.items())


def per_geometry_inputs(seed):
    """The anchor, positive and negative inputs of scenario ``seed``, each
    built on its own: (depth feature stack, mask geometry)."""
    rng = np.random.default_rng(seed)
    seed_a, seed_b = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    spec_a, spec_b = facade_heavy_spec(seed_a), facade_heavy_spec(seed_b)
    return [(Tensor(standardize_stack(depth_feature_stack(depth, 8, 8))),
             MaskGeometry.from_depth(align_depth(depth, 8, 8)))
            for depth in (render_oblique(spec_a)[0], render_ortho(spec_a)[0],
                          render_ortho(spec_b)[0])]


def per_geometry_losses(params, scenario, inputs):
    """The three losses with each geometry run through the chain on its own and
    nothing reused: the eager form of ``checks._losses``."""
    fusion = FusionParams(params["mid_kernel"], params["far_kernel"],
                          params["head_weights"], params["head_bias"])
    gate = GateParams(gain=params["gate_gain"], bias=params["gate_bias"])
    encoder = replace(scenario.encoder, dw1=params["enc_dw1"], pw2=params["enc_pw2"])
    embeddings = []
    anchor_features = None
    for x, geometry in inputs:
        features = encoder.forward(x)
        features = fuse(features, scale_branches(features, fusion), scale_weights(x, fusion))
        features = modulate(features, geometry.mask(gate))
        if anchor_features is None:
            anchor_features = features
        pooled = adaptive_avg_pool(features, 2, 2)
        embeddings.append(l2_normalize(reshape(pooled, (16,))))
    v_stable, v_unstable = aggregate_activation(
        activation_map(anchor_features), scenario.contrast_partition
    )
    contrast = contrast_hinge(v_stable, v_unstable, scenario.margin)
    triplet = soft_margin_triplet(*embeddings)
    return {"contrast": contrast, "triplet": triplet, "total": total_loss(triplet, contrast)}


class TestBatchedPass:
    """``_losses`` runs the three geometries of every parameter set as one batch."""

    def test_every_probe_equals_the_per_geometry_pass_bitwise(self, monkeypatch):
        losses = checks._losses
        calls = []

        def recording(param_sets, scenario):
            values = losses(param_sets, scenario)
            calls.append((param_sets, scenario, values))
            return values

        monkeypatch.setattr(checks, "_losses", recording)
        run_gradient_checks(base_seed=3, n_seeds=2)
        monkeypatch.undo()
        seeds = [int(x) for x in np.random.default_rng(3).integers(0, 2**31 - 1, size=2)]
        inputs = {}  # the scenarios' params dicts, in order, mapped to their inputs
        probes = 0
        for param_sets, scenario, (values, _) in calls:
            key = id(scenario.params)
            if key not in inputs:
                inputs[key] = per_geometry_inputs(seeds[len(inputs)])
            if any(isinstance(a, Tensor) for a in param_sets[0].values()):
                continue
            for k, params in enumerate(param_sets):
                expected = per_geometry_losses(params, scenario, inputs[key])
                for name in LOSS_NAMES:
                    assert values[name].data[k].hex() == expected[name].item().hex()
                probes += 1
        assert len(inputs) == 2
        assert probes == 2 * 41

    def test_taped_gradients_match_the_per_geometry_pass(self):
        seeds = np.random.default_rng(5).integers(0, 2**31 - 1, size=2)
        for seed in map(int, seeds):
            scenario = _build_scenario(seed)
            batched = checks._analytic_gradients(scenario)
            tape = Tape()
            leaves = {name: tape.leaf(arr) for name, arr in scenario.params.items()}
            expected = per_geometry_losses(leaves, scenario, per_geometry_inputs(seed))
            for loss_name in LOSS_NAMES:
                for leaf in leaves.values():
                    leaf.grad = None
                tape.backward(expected[loss_name])
                for name, leaf in leaves.items():
                    got, want = batched[loss_name][name], leaf.grad
                    assert got.shape == want.shape
                    # Shared parameters now sum over the batch in one
                    # reduction, so only the last bits may move.
                    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestSharedChains:
    """gradcheck runs the embedding tail and the contrast chain that bench and
    criterion 07 run, not copies of them."""

    def test_bench_and_gradcheck_reach_the_same_chains(self, monkeypatch):
        assert checks.pooled_embeddings is retrieval.pooled_embeddings
        assert checks.contrast_loss is losses_module.contrast_loss
        tails, contrasts = [], []

        def counted(calls, fn):
            def wrapper(features, *args):
                calls.append((features.shape[0], *args))
                return fn(features, *args)
            return wrapper

        tail, contrast = retrieval.pooled_embeddings, losses_module.contrast_loss
        for module in (retrieval, checks):
            monkeypatch.setattr(module, "pooled_embeddings", counted(tails, tail))
        for module in (losses_module, checks):
            monkeypatch.setattr(module, "contrast_loss", counted(contrasts, contrast))
        retrieval.run_experiment(n_scenes=2)
        # One single-map batch pooled to 1x1 per arm, map and view.
        assert tails == [(1, 1)] * (4 * 2 * 2)
        assert contrasts == []
        del tails[:]
        run_gradient_checks(n_seeds=1)
        # The margin pass and the taped pass pool one batch of three maps to
        # 2x2; then each group's probes run as one batch of three maps per
        # probe: 6 probes per group, 2 for the one-coordinate gate groups.
        probes = [6, 6, 6, 6, 2, 2, 6, 6]
        assert tails == [(3, 2)] * 2 + [(3 * p, 2) for p in probes]
        # The anchors alone, on the scenario's frozen partition; the margin
        # pass runs at 0.5 and every later call at the raised margin.
        assert [n for n, _, _ in contrasts] == [1, 1] + probes
        assert len({id(partition) for _, partition, _ in contrasts}) == 1
        margins = [margin for _, _, margin in contrasts]
        assert margins[0] == 0.5 and len(set(margins[1:])) == 1
