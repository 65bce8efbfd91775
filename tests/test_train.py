"""Optimizer step, plateau schedule, state IO, and fit-loop contracts."""

import csv
import functools
import json
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from defmap import geom, losses, metrics, synth, tape, train
from defmap import model as model_mod
from defmap.errors import (
    CheckpointError,
    DimMismatch,
    InvalidSpec,
    NonFiniteGradient,
)


def tiny_spec(seed=3):
    return synth.CategorySpec(
        seed=seed, n_instances=4, frames_per_instance=2,
        image_h=24, image_w=24, n_surface_samples=3000,
        n_keypoints=8, n_shape_coeffs=2, descriptor_dim=10,
        instance_desc_dim=10, n_texture_params=3,
    )


def tiny_dims(spec):
    return model_mod.ModelDims(
        descriptor_dim=spec.descriptor_dim,
        instance_dim=spec.instance_desc_dim,
        n_shape_coeffs=spec.n_shape_coeffs,
        n_texture_coeffs=spec.n_texture_params,
        embed_hidden=8, embed_blocks=1, basis_hidden=8, basis_blocks=1,
        texture_hidden=8, texture_blocks=1, head_hidden=8, head_blocks=1,
    )


def tiny_cfg(**kw):
    base = dict(
        epochs=2, batches_per_epoch=3, batch_size=2, n_pixels=40,
        n_eval_points=200, seed=0,
        weights=losses.LossWeights.defaults_for(geom.ORTHOGRAPHIC),
        loss_cfg=losses.LossConfig(n_mask_samples=100),
    )
    base.update(kw)
    return train.TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_cat():
    return synth.generate_category(tiny_spec())


def all_ids(cat):
    return list(range(len(cat.frames)))


def fresh_model(spec, seed=7, mode=model_mod.AMORTIZED, n_frames=0):
    return model_mod.init_model(tiny_dims(spec), mode,
                                np.random.default_rng(seed), n_frames=n_frames)


class TestConfig:
    def test_bad_lr_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_cfg(lr=0.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_cfg(momentum=1.0)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_cfg(ablate=("colorfulness",))

    def test_config_json_reads_back(self):
        # config.json as fit writes it, tuples as JSON lists and the
        # records nested, parses back to the config it was written from
        cfg = tiny_cfg(ablate=("repro", "mask"),
                       weights=losses.LossWeights(w_repro=0.5),
                       loss_cfg=losses.LossConfig(blur_radii=(0, 3)))
        values = json.loads(json.dumps(asdict(cfg)))
        assert values["ablate"] == ["repro", "mask"]
        assert train.config_from_json(values, geom.PERSPECTIVE) == cfg

    def test_effective_weights_zero_targets(self):
        w = train.effective_weights(losses.LossWeights(), ("repro", "texture"))
        assert w.w_repro == 0.0
        assert w.w_tex_photo == 0.0 and w.w_tex_percep == 0.0
        assert w.w_prior == 1.0 and w.w_min_k == 0.1


def manual_state(params, lr=0.1, momentum=0.9, lr_scale=None):
    return train.TrainState(
        params=params,
        velocity={k: np.zeros_like(v) for k, v in params.items()},
        lr=lr,
        momentum=momentum,
        lr_scale=lr_scale or {k: 1.0 for k in params},
    )


class TestSgdStep:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([1.0, -2.0])}
        s = manual_state(p)
        train.sgd_momentum_step(s, {"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])
        assert s.step == 1

    def test_zero_momentum_is_plain_descent(self):
        p = {"w": np.array([1.0, 2.0])}
        s = manual_state(p, lr=0.5, momentum=0.0)
        train.sgd_momentum_step(s, {"w": np.array([0.2, -0.4])})
        np.testing.assert_allclose(p["w"], [0.9, 2.2], atol=1e-15)

    def test_two_step_recurrence(self):
        # v1 = g1, v2 = mu*g1 + g2; theta = theta0 - lr*(v1 + v2)
        g1, g2 = np.array([1.0, 0.0]), np.array([0.5, -1.0])
        p = {"w": np.zeros(2)}
        s = manual_state(p, lr=0.1, momentum=0.9)
        train.sgd_momentum_step(s, {"w": g1})
        train.sgd_momentum_step(s, {"w": g2})
        expect = -0.1 * (g1 + 0.9 * g1 + g2)
        np.testing.assert_allclose(p["w"], expect, atol=1e-15)

    def test_latent_rows_step_faster(self):
        p = {"net:a": np.zeros(1), "lat:b": np.zeros(1)}
        s = manual_state(p, lr=0.1, momentum=0.0,
                         lr_scale={"net:a": 1.0, "lat:b": 10.0})
        train.sgd_momentum_step(s, {"net:a": np.ones(1), "lat:b": np.ones(1)})
        assert p["net:a"][0] == pytest.approx(-0.1)
        assert p["lat:b"][0] == pytest.approx(-1.0)

    def test_nonfinite_rejected_atomically(self):
        p = {"a": np.array([1.0]), "b": np.array([2.0])}
        s = manual_state(p)
        s.velocity["a"][:] = 0.3
        with pytest.raises(NonFiniteGradient):
            train.sgd_momentum_step(
                s, {"a": np.array([0.1]), "b": np.array([np.nan])})
        assert p["a"][0] == 1.0 and p["b"][0] == 2.0
        assert s.velocity["a"][0] == 0.3
        assert s.step == 0

    def test_quadratic_bowl_converges(self):
        A = np.diag([1.0, 3.0])
        theta = np.array([1.0, -1.0])
        p = {"w": theta}
        s = manual_state(p, lr=0.1, momentum=0.9)
        vals = []
        for _ in range(200):
            vals.append(0.5 * theta @ A @ theta)
            train.sgd_momentum_step(s, {"w": A @ theta})
        assert vals[-1] < 1e-6
        # momentum spirals through near-zero dips, so compare the envelope:
        # maxima over period-sized windows must decrease strictly
        for k in range(40, 160, 20):
            assert max(vals[k + 20:k + 40]) < max(vals[k:k + 20])

    def test_clip_global_norm(self):
        g = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        norm = train.clip_global_norm(g, 1.0)
        assert norm == pytest.approx(5.0)
        joint = np.sqrt(sum(float(np.sum(v * v)) for v in g.values()))
        assert joint == pytest.approx(1.0)
        g2 = {"a": np.array([0.3])}
        assert train.clip_global_norm(g2, 1.0) == pytest.approx(0.3)
        assert g2["a"][0] == pytest.approx(0.3)   # below cap: untouched

    def test_clip_disabled(self):
        g = {"a": np.array([30.0])}
        train.clip_global_norm(g, 0.0)
        assert g["a"][0] == 30.0


def plateau_lrs(values, lr, **cfg_kw):
    """lr after each epoch value, as fit steps its TrainState's schedule."""
    cfg = tiny_cfg(lr=lr, **cfg_kw)
    state = train.init_state(fresh_model(tiny_spec()), cfg)
    lrs = [train._plateau_step(state, v, cfg.plateau_patience,
                               cfg.plateau_factor, cfg.plateau_rel_improve,
                               cfg.max_lr_decays) for v in values]
    return state, lrs


class TestPlateau:
    def test_strictly_decreasing_keeps_lr(self):
        state, lrs = plateau_lrs([1.0, 0.9, 0.8, 0.7, 0.6], 0.01)
        assert lrs == [0.01] * 5
        assert (state.best, state.wait, state.decays) == (0.6, 0, 0)

    def test_flat_history_decays(self):
        state, lrs = plateau_lrs([1.0, 1.0], 0.01, plateau_patience=1)
        assert lrs[-1] == pytest.approx(0.001)
        assert state.lr == lrs[-1] and state.decays == 1

    def test_one_decay_per_episode(self):
        _, lrs = plateau_lrs([1.0] * 5, 1.0, plateau_patience=2)
        assert lrs == [1.0, 1.0, pytest.approx(0.1), pytest.approx(0.1),
                       pytest.approx(0.01)]

    def test_relative_threshold(self):
        # 0.05% improvement is a plateau, 1% is not
        assert plateau_lrs([1.0, 0.9995], 1.0, plateau_patience=1)[1][-1] \
            == pytest.approx(0.1)
        assert plateau_lrs([1.0, 0.99], 1.0, plateau_patience=1)[1][-1] \
            == 1.0

    def test_at_most_three_decays(self):
        state, lrs = plateau_lrs([1.0] * 12, 1.0, plateau_patience=1)
        assert lrs[-1] == pytest.approx(1e-3)
        assert state.decays == 3

    def test_improvement_resets_wait(self):
        state, lrs = plateau_lrs([1.0, 1.0, 0.5, 0.5, 0.5], 1.0,
                                 plateau_patience=2)
        assert lrs[3] == 1.0            # wait never reached 2 in a row
        assert lrs[4] == pytest.approx(0.1)


class TestStateIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = tiny_spec()
        mdl = fresh_model(spec, mode=model_mod.DIRECT_LATENT, n_frames=3)
        cfg = tiny_cfg()
        state = train.init_state(mdl, cfg)
        rng = np.random.default_rng(5)
        for v in state.velocity.values():
            v[...] = rng.standard_normal(v.shape)
        state.step, state.epoch, state.best = 17, 2, 0.125
        state.wait, state.decays, state.nonfinite = 1, 2, 3
        state.rng.random(11)            # advance the stream
        probe = state.rng.random(4)     # next draws after the snapshot point
        state.rng = np.random.default_rng(cfg.seed)
        state.rng.random(11)
        path = tmp_path / "state.bin"
        train.save_state(path, state)

        mdl2 = fresh_model(spec, seed=99, mode=model_mod.DIRECT_LATENT,
                           n_frames=3)
        loaded = train.load_state(path, mdl2)
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name],
                                          state.params[name])
            np.testing.assert_array_equal(loaded.velocity[name],
                                          state.velocity[name])
        assert (loaded.step, loaded.epoch, loaded.best) == (17, 2, 0.125)
        assert (loaded.wait, loaded.decays, loaded.nonfinite) == (1, 2, 3)
        assert loaded.lr == state.lr and loaded.momentum == state.momentum
        assert loaded.lr_scale == state.lr_scale
        np.testing.assert_array_equal(loaded.rng.random(4), probe)

    def test_load_binds_model_storage(self, tmp_path):
        spec = tiny_spec()
        mdl = fresh_model(spec)
        state = train.init_state(mdl, tiny_cfg())
        path = tmp_path / "state.bin"
        train.save_state(path, state)
        mdl2 = fresh_model(spec, seed=42)
        loaded = train.load_state(path, mdl2)
        assert np.shares_memory(loaded.params["net:embed"],
                                mdl2.nets["embed"].values)
        np.testing.assert_array_equal(mdl2.nets["embed"].values,
                                      mdl.nets["embed"].values)

    def test_model_mismatch_rejected(self, tmp_path):
        spec = tiny_spec()
        mdl = fresh_model(spec, mode=model_mod.DIRECT_LATENT, n_frames=3)
        path = tmp_path / "state.bin"
        train.save_state(path, train.init_state(mdl, tiny_cfg()))
        other = fresh_model(spec, mode=model_mod.AMORTIZED)
        with pytest.raises(CheckpointError):
            train.load_state(path, other)


class TestFit:
    def test_runs_and_writes_run_dir(self, tiny_cat, tmp_path):
        cfg = tiny_cfg()
        mdl = fresh_model(tiny_cat.spec)
        run = tmp_path / "run"
        log, _ = train.fit(tiny_cat, mdl, cfg, all_ids(tiny_cat), [0, 5],
                           run, None)
        assert len(log) == cfg.epochs
        assert json.loads((run / "config.json").read_text())["lr"] == cfg.lr
        with open(run / "log.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + cfg.epochs * cfg.batches_per_epoch
        assert rows[0][:4] == ["step", "epoch", "lr", "total"]
        with open(run / "metrics.csv") as f:
            mrows = list(csv.reader(f))
        assert len(mrows) == 1 + cfg.epochs
        assert (run / "model_final.bin").exists()
        assert (run / "state_final.bin").exists()
        for row in log:
            assert np.isfinite(row["d_pcl"]) and row["d_pcl"] > 0
            assert np.isfinite(row["d_depth"]) and row["d_depth"] > 0

    def test_logged_totals_match_breakdown(self, tiny_cat, tmp_path):
        # the logged total must equal the weighted sum of the logged terms
        cfg = tiny_cfg(ablate=("repro",))
        mdl = fresh_model(tiny_cat.spec)
        run = tmp_path / "run"
        train.fit(tiny_cat, mdl, cfg, all_ids(tiny_cat), [0], run, None)
        w = train.effective_weights(cfg.weights, cfg.ablate)
        with open(run / "log.csv") as f:
            for row in csv.DictReader(f):
                total = (w.w_prior * float(row["prior"])
                         + w.w_repro * float(row["repro"])
                         + w.w_emb_align * float(row["emb_align"])
                         + w.w_mask * float(row["mask"])
                         + float(row["texture"])
                         + w.w_min_k * float(row["min_k"]))
                assert total == pytest.approx(float(row["total"]),
                                              rel=1e-12, abs=1e-12)
                assert float(row["repro"]) > 0   # term still reported

    def test_logged_loss_matches_independent_replay(self, tiny_cat, tmp_path):
        # re-execute the documented step recipe and demand bit-equal logs
        cfg = tiny_cfg(epochs=1)
        mdl = fresh_model(tiny_cat.spec)
        run = tmp_path / "run"
        train.fit(tiny_cat, mdl, cfg, all_ids(tiny_cat), [0], run, None)
        with open(run / "log.csv") as f:
            logged = list(csv.DictReader(f))

        mdl2 = fresh_model(tiny_cat.spec)
        state = train.init_state(mdl2, cfg)
        frames = tiny_cat.frames
        inst = [fr.instance_id for fr in frames]
        rebal = synth.rebalance_weights(
            [synth.azimuth_of(fr.labels.rotation) for fr in frames])
        w = train.effective_weights(cfg.weights, cfg.ablate)
        for row in logged:
            batch = synth.make_batches(inst, rebal, cfg.batch_size,
                                       state.rng)
            leaves = train.step_leaves(mdl2)
            total, breakdown = losses.total_loss(
                mdl2, leaves, [frames[i] for i in batch], w, cfg.loss_cfg,
                state.rng, n_pixels=cfg.n_pixels)
            assert repr(float(total.data)) == row["total"]
            assert repr(breakdown["prior"]) == row["prior"]
            _, grads = tape.collect(total, leaves)
            train.clip_global_norm(grads, cfg.clip_norm)
            train.sgd_momentum_step(state, grads)

    def test_same_seed_same_run(self, tiny_cat, tmp_path):
        cfg = tiny_cfg(epochs=1)
        runs = []
        for sub in ("a", "b"):
            mdl = fresh_model(tiny_cat.spec)
            train.fit(tiny_cat, mdl, cfg, all_ids(tiny_cat), [0],
                      tmp_path / sub, None)
            runs.append(mdl)
        assert (tmp_path / "a" / "log.csv").read_bytes() \
            == (tmp_path / "b" / "log.csv").read_bytes()
        for name, arr in runs[0].param_arrays().items():
            np.testing.assert_array_equal(arr, runs[1].param_arrays()[name])

    def test_resume_matches_unbroken_run(self, tiny_cat, tmp_path):
        cfg2 = tiny_cfg(epochs=2)
        full = fresh_model(tiny_cat.spec)
        train.fit(tiny_cat, full, cfg2, all_ids(tiny_cat), [0],
                  tmp_path / "full", None)

        part = fresh_model(tiny_cat.spec)
        train.fit(tiny_cat, part, tiny_cfg(epochs=1), all_ids(tiny_cat), [0],
                  tmp_path / "p1", None)
        resumed = model_mod.load_model(tmp_path / "p1" / "model_final.bin")
        state = train.load_state(tmp_path / "p1" / "state_final.bin", resumed)
        train.fit(tiny_cat, resumed, cfg2, all_ids(tiny_cat), [0],
                  tmp_path / "p2", state=state)

        for name, arr in full.param_arrays().items():
            np.testing.assert_array_equal(arr, resumed.param_arrays()[name])
        rows_full = (tmp_path / "full" / "log.csv").read_text().splitlines()
        rows_a = (tmp_path / "p1" / "log.csv").read_text().splitlines()
        rows_b = (tmp_path / "p2" / "log.csv").read_text().splitlines()
        assert rows_a[0] == rows_b[0] == rows_full[0]   # each has its header
        assert rows_full[1:] == rows_a[1:] + rows_b[1:]

    def test_nonfinite_steps_skipped_and_counted(self, tmp_path):
        cat = synth.generate_category(tiny_spec(seed=9))
        for fr in cat.frames:
            fr.labels.alpha[:] = np.nan     # poisons the prior term only
        mdl = fresh_model(cat.spec)
        before = {k: v.copy() for k, v in mdl.param_arrays().items()}
        cfg = tiny_cfg(epochs=1)
        state = train.init_state(mdl, cfg)
        log, _ = train.fit(cat, mdl, cfg, all_ids(cat), [0], tmp_path,
                           state=state)
        assert state.nonfinite == cfg.batches_per_epoch
        assert state.step == 0
        for name, arr in mdl.param_arrays().items():
            np.testing.assert_array_equal(arr, before[name])
        # an epoch with no applied step has no mean and moves no schedule
        assert np.isnan(log[0]["mean_total"]) and np.isnan(log[0]["mean_prior"])
        assert (state.best, state.wait, state.lr) == (np.inf, 0, cfg.lr)

    def test_epoch_means_cover_the_applied_steps(self, tmp_path):
        cat = synth.generate_category(tiny_spec(seed=9))
        for fr in cat.frames:
            if fr.instance_id == 0:
                fr.labels.alpha[:] = np.nan     # its batches are skipped
        mdl = fresh_model(cat.spec)
        cfg = tiny_cfg(epochs=3, batches_per_epoch=4)
        state = train.init_state(mdl, cfg)
        log, _ = train.fit(cat, mdl, cfg, all_ids(cat), [0], tmp_path,
                           state=state)
        with open(tmp_path / "log.csv") as f:
            steps = list(csv.DictReader(f))
        assert 0 < state.nonfinite < len(steps)
        for row in log:
            applied = [s for s in steps if int(s["epoch"]) == row["epoch"] - 1
                       and s["grad_norm"] != "nan"]
            if not applied:
                assert np.isnan(row["mean_total"])
                continue
            totals = [float(s["total"]) for s in applied]
            assert row["mean_total"] == float(np.mean(totals))
            for t in train.LOG_TERMS:
                assert row[f"mean_{t}"] == (sum(float(s[t]) for s in applied)
                                            / len(applied))
        assert np.isfinite(state.best)

    def test_each_step_frees_the_previous_steps_graph(self, tiny_cat,
                                                      tmp_path, monkeypatch):
        roots, alive = [], []
        real = losses.total_loss

        def spy(*args, **kwargs):
            alive.extend(ref() is not None for ref in roots[-1:])
            total, breakdown = real(*args, **kwargs)
            roots.append(weakref.ref(total))
            return total, breakdown

        monkeypatch.setattr(losses, "total_loss", spy)
        cfg = tiny_cfg(epochs=1)
        train.fit(tiny_cat, fresh_model(tiny_cat.spec), cfg,
                  all_ids(tiny_cat), [0], tmp_path, None)
        assert len(roots) == cfg.batches_per_epoch
        assert alive == [False] * (cfg.batches_per_epoch - 1)

    def test_direct_latent_mode_trains(self, tiny_cat, tmp_path):
        mdl = fresh_model(tiny_cat.spec, mode=model_mod.DIRECT_LATENT,
                          n_frames=len(tiny_cat.frames))
        lat0 = mdl.latents["alpha"].copy()
        cfg = tiny_cfg(epochs=1, batches_per_epoch=4)
        log, _ = train.fit(tiny_cat, mdl, cfg, all_ids(tiny_cat), [0],
                           tmp_path, None)
        assert not np.array_equal(mdl.latents["alpha"], lat0)
        assert np.isfinite(log[0]["mean_total"])

    def test_step_leaves_run_the_nets_in_float32(self, tiny_cat):
        # a step's network leaves are float32 copies of the float64 weights;
        # the latent tables and every gradient stay float64
        mdl = fresh_model(tiny_cat.spec, mode=model_mod.DIRECT_LATENT,
                          n_frames=len(tiny_cat.frames))
        leaves = train.step_leaves(mdl)
        for name, arr in mdl.param_arrays().items():
            dtype = np.float32 if name.startswith("net:") else np.float64
            assert arr.dtype == np.float64
            assert leaves[name].data.dtype == dtype
            np.testing.assert_array_equal(leaves[name].data,
                                          arr.astype(dtype))
        cfg = tiny_cfg()
        total, _ = losses.total_loss(
            mdl, leaves, [tiny_cat.frames[0], tiny_cat.frames[2]],
            cfg.weights, cfg.loss_cfg, np.random.default_rng(0),
            n_pixels=cfg.n_pixels)
        _, grads = tape.collect(total, leaves)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
        assert all(np.any(g) for g in grads.values())

    def test_empty_train_set_rejected(self, tiny_cat, tmp_path):
        with pytest.raises(DimMismatch):
            train.fit(tiny_cat, fresh_model(tiny_cat.spec), tiny_cfg(), [],
                      [0], tmp_path, None)


def self_consistent_problem(seed=11, n_pix=30):
    """A direct-latent model plus duck-typed frames generated from the model
    itself: observations are exact self-projections, appearance is constant,
    and the labels are the model's own outputs, so the data terms all start
    at exactly zero."""
    rng = np.random.default_rng(seed)
    spec = tiny_spec()
    mdl = fresh_model(spec, seed=seed, mode=model_mod.DIRECT_LATENT,
                      n_frames=2)
    # constant appearance: texture net reduced to its output bias, which
    # passes through a sigmoid
    tex = mdl.nets["texture"].values
    tex[:] = 0.0
    c0 = np.array([0.4, 0.5, 0.6])
    tex[-3:] = np.log(c0 / (1 - c0))    # final layer bias is the tail
    h = w = 24
    raster = geom.Raster(ppu=8.0, cx=(w - 1) / 2, cy=(h - 1) / 2)
    cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
    poses = [synth.pose_rotation(0.3, 0.2), synth.pose_rotation(-0.4, 0.1)]

    class SelfFrame:
        def __init__(self, fid, R):
            alpha = rng.standard_normal(spec.n_shape_coeffs)
            beta = rng.standard_normal(spec.n_texture_params) * 0.1
            mdl.latents["alpha"][fid] = alpha
            mdl.latents["beta"][fid] = beta
            mdl.latents["view6d"][fid] = np.concatenate([R[:, 0], R[:, 1]])
            self.frame_id = fid
            self.instance_id = fid
            self.camera = cam
            self.raster = raster
            self.image = np.tile(c0, (h, w, 1))
            self.mask = np.ones((h, w), bool)
            self.mask_dist = np.zeros((h, w))
            self.descriptors = rng.standard_normal((n_pix, spec.descriptor_dim))
            kappa = model_mod.embed_np(mdl, self.descriptors)
            self.gt_kappa = kappa
            X = model_mod.basis_np(mdl, kappa) @ alpha
            Xc = X @ R.T
            self.pix_y = Xc[:, :2].copy()
            px = raster.to_px(self.pix_y)
            self.pix_rc = np.stack([
                np.clip(np.rint(px[:, 1]).astype(int), 0, h - 1),
                np.clip(np.rint(px[:, 0]).astype(int), 0, w - 1),
            ], axis=1)
            self.colors = np.tile(c0, (n_pix, 1))
            self.kp_desc = rng.standard_normal((spec.n_keypoints,
                                                spec.descriptor_dim))
            kp_kappa = model_mod.embed_np(mdl, self.kp_desc)
            basis = model_mod.basis_np(mdl, kp_kappa)
            self.labels = losses.NrsfmLabels(
                basis=basis,
                visible=np.ones(spec.n_keypoints, bool),
                alpha=alpha.copy(),
                rotation=R.copy(),
            )
            self.instance_desc = rng.standard_normal(spec.instance_desc_dim)
            self.depth = np.zeros((h, w))
            self.depth[self.pix_rc[:, 0], self.pix_rc[:, 1]] = Xc[:, 2]
            self.gt_alpha = alpha.copy()

        @functools.cached_property
        def integral(self):
            return tape.integral_image(self.image)

    frames = [SelfFrame(0, poses[0]), SelfFrame(1, poses[1])]
    basis0 = {k: v.copy() for k, v in mdl.param_arrays().items()}

    class SelfCategory:
        def __init__(self):
            self.frames = frames

        def surface_points(self, kappa, alpha):
            ref = model_mod.DeformerModel(
                dims=mdl.dims, mode=mdl.mode,
                nets={k: model_mod.nets.MlpParams(mdl.nets[k].config,
                                                  basis0[f"net:{k}"])
                      for k in mdl.nets},
                latents=mdl.latents)
            return model_mod.basis_np(ref, np.asarray(kappa)) @ alpha

    return SelfCategory(), mdl


class TestFixedPoint:
    def test_self_consistent_problem_stays_at_zero(self, tmp_path):
        # ground truth the model can represent is a fixed point of fit: the
        # signed alignment term (optimum at the sphere boundary, not at gt)
        # is the one switched off
        cat, mdl = self_consistent_problem()
        before = {k: v.copy() for k, v in mdl.param_arrays().items()}
        cfg = tiny_cfg(epochs=1, batches_per_epoch=5, batch_size=2,
                       n_pixels=None, ablate=("emb_align",),
                       n_eval_points=100)
        state = train.init_state(mdl, cfg)
        log, _ = train.fit(cat, mdl, cfg, all_ids(cat), all_ids(cat),
                           tmp_path, state=state)
        assert state.step == 5 and state.nonfinite == 0   # steps really ran
        assert log[0]["mean_total"] < 1e-8
        assert log[0]["mean_prior"] < 1e-10
        assert log[0]["mean_repro"] < 1e-10
        assert log[0]["mean_mask"] < 1e-12
        assert log[0]["mean_texture"] < 1e-12
        assert log[0]["mean_min_k"] < 1e-12
        assert log[0]["d_pcl"] < 1e-6
        for name, arr in mdl.param_arrays().items():
            np.testing.assert_allclose(arr, before[name], atol=1e-8)
