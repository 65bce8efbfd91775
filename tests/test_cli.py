"""Command-line surface: artifacts, manifests, oracles, exit codes."""

import json
import shutil

import numpy as np
import pytest

from defmap import cli, metrics, synth
from defmap import model as model_mod
from defmap.errors import (CheckpointError, DegenerateCloud, InvalidSpec,
                           IoError)

SPEC = {
    "n_instances": 3,
    "frames_per_instance": 2,
    "image_h": 20,
    "image_w": 20,
    "n_surface_samples": 1200,
    "n_keypoints": 6,
    "descriptor_dim": 6,
    "instance_desc_dim": 5,
    "n_texture_params": 3,
    "n_shape_coeffs": 2,
}

TRAIN_CFG = {
    "n_pixels": 30,
    "n_eval_points": 150,
    "loss_cfg": {"n_mask_samples": 100},
}

MODEL_CFG = {
    "n_texture_coeffs": 3,
    "embed_hidden": 8, "embed_blocks": 1,
    "basis_hidden": 8, "basis_blocks": 1,
    "texture_hidden": 8, "texture_blocks": 1,
    "head_hidden": 6, "head_blocks": 1,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ds(work):
    out = work / "ds"
    spec = write_json(work / "spec.json", SPEC)
    assert cli.main(["synth-gen", "--out", str(out), "--spec", spec,
                     "--seed", "4"]) == 0
    return out


@pytest.fixture(scope="module")
def run(work, ds):
    out = work / "run"
    cfg = write_json(work / "tc.json", TRAIN_CFG)
    md = write_json(work / "md.json", MODEL_CFG)
    assert cli.main(["fit", "--dataset", str(ds), "--out", str(out),
                     "--config", cfg, "--model-config", md,
                     "--epochs", "1", "--batches-per-epoch", "6",
                     "--batch-size", "2", "--seed", "0",
                     "--ablate", "repro"]) == 0
    return out


def affine_oracle_model(cat, rng):
    """Model whose basis net reproduces a degree-1 basis field exactly.

    With zeroed residual blocks the net is affine end to end, and a
    band-limited field is affine in the canonical point, so the output
    layer can be filled in closed form. Latents carry the generator's
    per-frame values.
    """
    D = cat.spec.n_shape_coeffs
    dims = model_mod.ModelDims(
        descriptor_dim=cat.spec.descriptor_dim,
        instance_dim=cat.spec.instance_desc_dim,
        n_shape_coeffs=D, n_texture_coeffs=2,
        embed_hidden=8, embed_blocks=1, basis_hidden=8, basis_blocks=1,
        texture_hidden=8, texture_blocks=1, head_hidden=6, head_blocks=1,
    )
    mdl = model_mod.init_model(dims, model_mod.DIRECT_LATENT, rng,
                               n_frames=len(cat.frames))
    p = mdl.nets["basis"]
    p.values[:] = 0.0
    p.view("w_in")[:3, :] = np.eye(3)
    C = cat.basis_coeffs
    assert not np.any(C[4:]), "oracle construction needs sh_degree <= 1"
    c0, c1 = 0.28209479177387814, 0.4886025119029199
    w_out, b_out = p.view("w_out"), p.view("b_out")
    for c in range(3):
        for d in range(D):
            m = c1 * np.array([C[3, c, d], C[1, c, d], C[2, c, d]])
            if d == 0:
                m[c] += 1.0
            w_out[c * D + d, :3] = m
            b_out[c * D + d] = c0 * C[0, c, d]
    mdl.latents["alpha"][:] = np.stack([fr.gt_alpha for fr in cat.frames])
    mdl.latents["view6d"][:] = np.stack(
        [np.concatenate([fr.gt_R[:, 0], fr.gt_R[:, 1]]) for fr in cat.frames])
    return mdl


@pytest.fixture(scope="module")
def oracle(work):
    out = work / "ds_flat"
    spec = write_json(work / "spec_flat.json", {
        **SPEC, "sh_degree": 1, "sigma_descriptor": 0.0, "sigma_label": 0.0,
    })
    assert cli.main(["synth-gen", "--out", str(out), "--spec", spec,
                     "--seed", "11"]) == 0
    cat = synth.load_category(out)
    mdl = affine_oracle_model(cat, np.random.default_rng(3))
    k = np.random.default_rng(1).standard_normal((40, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    np.testing.assert_allclose(model_mod.basis_np(mdl, k), cat.basis_at(k),
                               atol=1e-12)
    ckpt = work / "oracle.bin"
    model_mod.save_model(ckpt, mdl)
    return out, ckpt


class TestSynthGen:
    def test_layout(self, ds):
        for name in ("category.json", "arrays.npz", "labels.json",
                     "keypoints.csv", "manifest.json",
                     "frames/frame_0000.npz"):
            assert (ds / name).exists(), name

    def test_same_seed_same_hash(self, ds, tmp_path):
        spec = write_json(tmp_path / "spec.json", SPEC)
        for sub in ("a", "b"):
            assert cli.main(["synth-gen", "--out", str(tmp_path / sub),
                             "--spec", spec, "--seed", "4"]) == 0
        h_a = synth.dataset_hash(tmp_path / "a")
        assert h_a == synth.dataset_hash(tmp_path / "b")
        assert h_a == synth.dataset_hash(ds)
        assert cli.main(["synth-gen", "--out", str(tmp_path / "c"),
                         "--spec", spec, "--seed", "5"]) == 0
        assert synth.dataset_hash(tmp_path / "c") != h_a

    def test_manifest_contents(self, ds):
        m = json.loads((ds / "manifest.json").read_text())
        assert m["command"] == "synth-gen"
        assert m["seed"] == 4
        assert m["config"]["n_instances"] == 3
        assert "frames/frame_0005.npz" in m["outputs"]
        assert m["versions"]["defmap"]

    def test_bad_field_value_names_field(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", {"n_shape_coeffs": 0})
        code = cli.main(["synth-gen", "--out", str(tmp_path / "x"),
                         "--spec", spec])
        assert code == cli.EXIT_CODES[InvalidSpec]
        assert "n_shape_coeffs" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"bogus": 1})
        assert cli.main(["synth-gen", "--out", str(tmp_path / "x"),
                         "--spec", spec]) == cli.EXIT_CODES[InvalidSpec]


class TestFit:
    def test_run_artifacts(self, run):
        for name in ("config.json", "log.csv", "metrics.csv",
                     "model_final.bin", "state_final.bin", "manifest.json"):
            assert (run / name).exists(), name
        header = (run / "log.csv").read_text().splitlines()[0]
        assert header == ("step,epoch,lr,total,prior,repro,emb_align,mask,"
                          "texture,min_k,min_k_raw,min_k_refs,grad_norm")
        assert len((run / "log.csv").read_text().splitlines()) == 1 + 6

    def test_ablation_recorded_in_manifest(self, run):
        m = json.loads((run / "manifest.json").read_text())
        assert m["config"]["ablate"] == ["repro"]
        assert m["config"]["effective_weights"]["w_repro"] == 0.0
        assert m["config"]["weights"]["w_repro"] != 0.0
        assert m["inputs"]["dataset"]["dataset_hash"]

    def test_missing_dataset(self, tmp_path):
        assert cli.main(["fit", "--dataset", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CODES[IoError]

    def test_orthographic_keeps_default_repro_weight(self, run):
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["weights"]["w_repro"] == 0.01

    def test_perspective_starts_from_its_own_weights(self, work, tmp_path):
        persp = tmp_path / "ds_persp"
        spec = write_json(tmp_path / "spec.json",
                          {**SPEC, "camera_kind": "perspective"})
        assert cli.main(["synth-gen", "--out", str(persp), "--spec", spec,
                         "--seed", "4"]) == 0
        md = write_json(tmp_path / "md.json", MODEL_CFG)
        for name, weights, want in (("default", {}, 1.0),
                                    ("explicit", {"w_repro": 0.3}, 0.3)):
            cfg = write_json(tmp_path / f"{name}.json",
                             {**TRAIN_CFG, "weights": weights})
            out = tmp_path / name
            assert cli.main(["fit", "--dataset", str(persp), "--out",
                             str(out), "--config", cfg, "--model-config", md,
                             "--epochs", "1", "--batches-per-epoch", "1",
                             "--batch-size", "2", "--seed", "0"]) == 0
            got = json.loads((out / "config.json").read_text())
            assert got["weights"]["w_repro"] == want

    def test_direct_latent_holdout_is_usage_error(self, ds, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--dataset", str(ds), "--out",
                      str(tmp_path / "o"), "--mode", "direct-latent",
                      "--holdout-every", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_resumed_direct_latent_holdout_is_usage_error(self, ds,
                                                          tmp_path):
        # the mode comes from the checkpoint, not from --mode
        cfg = write_json(tmp_path / "tc.json", TRAIN_CFG)
        md = write_json(tmp_path / "md.json", MODEL_CFG)
        p1 = tmp_path / "p1"
        assert cli.main(["fit", "--dataset", str(ds), "--out", str(p1),
                         "--config", cfg, "--model-config", md,
                         "--mode", "direct-latent", "--epochs", "1",
                         "--batches-per-epoch", "1", "--batch-size", "2",
                         "--seed", "0"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--dataset", str(ds), "--out",
                      str(tmp_path / "p2"), "--config", cfg,
                      "--resume", str(p1), "--epochs", "2",
                      "--holdout-every", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "p2").exists()

    @pytest.mark.parametrize("mode,holdout", [("direct-latent", "0"),
                                              ("amortized", "2")])
    def test_holdout_combinations_that_run(self, ds, tmp_path, mode,
                                           holdout):
        cfg = write_json(tmp_path / "tc.json", TRAIN_CFG)
        md = write_json(tmp_path / "md.json", MODEL_CFG)
        out = tmp_path / "o"
        assert cli.main(["fit", "--dataset", str(ds), "--out", str(out),
                         "--config", cfg, "--model-config", md,
                         "--mode", mode, "--holdout-every", holdout,
                         "--epochs", "1", "--batches-per-epoch", "1",
                         "--batch-size", "2", "--seed", "0"]) == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["config"]["mode"] == mode.replace("-", "_")
        assert (out / "metrics.csv").read_text().splitlines()[-1] \
            .startswith("1,")

    @pytest.mark.parametrize("flag", ["--mode", "--model-config"])
    def test_resume_rejects_model_flags(self, ds, run, tmp_path, flag):
        # the checkpoint fixes the model; a conflicting flag is not ignored
        value = {"--mode": "direct-latent",
                 "--model-config": write_json(tmp_path / "md.json",
                                              MODEL_CFG)}[flag]
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--dataset", str(ds), "--out",
                      str(tmp_path / "o"), "--resume", str(run), flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_resume_from_truncated_state_exits_17(self, ds, run, tmp_path,
                                                  capsys):
        p1 = tmp_path / "p1"
        p1.mkdir()
        (p1 / "model_final.bin").write_bytes(
            (run / "model_final.bin").read_bytes())
        (p1 / "state_final.bin").write_bytes(
            (run / "state_final.bin").read_bytes()[:-100])
        code = cli.main(["fit", "--dataset", str(ds), "--out",
                         str(tmp_path / "p2"), "--resume", str(p1)])
        assert code == cli.EXIT_CODES[CheckpointError] == 17
        assert "error[CheckpointError]" in capsys.readouterr().err

    @pytest.mark.parametrize("config,key", [
        ({"bogus": 1}, "bogus"),
        ({"weights": {"w_bogus": 1.0}}, "w_bogus"),
        ({"loss_cfg": {"bogus": 1}}, "bogus"),
        ({"loss_cfg": {"perspective_ray_loss": True}}, "perspective_ray_loss"),
    ], ids=["top_level", "weights", "loss_cfg", "removed_loss_cfg_field"])
    def test_unknown_config_key_is_invalid_spec(self, ds, tmp_path, capsys,
                                                config, key):
        cfg = write_json(tmp_path / "tc.json", config)
        code = cli.main(["fit", "--dataset", str(ds), "--out",
                         str(tmp_path / "o"), "--config", cfg])
        assert code == cli.EXIT_CODES[InvalidSpec] == 14
        assert key in capsys.readouterr().err

    def test_resume_continues_epochs(self, work, ds, tmp_path):
        cfg = write_json(tmp_path / "tc.json", TRAIN_CFG)
        md = write_json(tmp_path / "md.json", MODEL_CFG)
        base = ["--dataset", str(ds), "--config", cfg,
                "--batches-per-epoch", "4", "--batch-size", "2",
                "--seed", "1"]
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        assert cli.main(["fit", *base, "--model-config", md,
                         "--out", str(p1), "--epochs", "1"]) == 0
        assert cli.main(["fit", *base, "--out", str(p2), "--epochs", "2",
                         "--resume", str(p1)]) == 0
        rows = (p2 / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 and rows[0].startswith("2,")
        m = json.loads((p2 / "manifest.json").read_text())
        assert "resume_state" in m["inputs"]


class TestValidationMatchesEval:
    # untrained direct-latent rows keep alpha = 0, so 4 of the 6 frames
    # that one batch of 2 leaves untouched have degenerate clouds and depth
    @pytest.mark.parametrize("mode,failure", [
        ("direct-latent", "(DegenerateCloud x4, DegenerateDepth x4)"),
        ("amortized", None)], ids=["degenerate", "healthy"])
    def test_fit_scores_equal_eval_mean_row(self, ds, tmp_path, capsys,
                                            mode, failure):
        cfg = write_json(tmp_path / "tc.json", TRAIN_CFG)
        md = write_json(tmp_path / "md.json", MODEL_CFG)
        run_dir, ev = tmp_path / "run", tmp_path / "ev"
        assert cli.main(["fit", "--dataset", str(ds), "--out", str(run_dir),
                         "--config", cfg, "--model-config", md,
                         "--mode", mode, "--epochs", "1",
                         "--batches-per-epoch", "1", "--batch-size", "2",
                         "--seed", "0"]) == 0
        fit_err = capsys.readouterr().err
        assert cli.main(["eval", "--checkpoint",
                         str(run_dir / "model_final.bin"), "--dataset",
                         str(ds), "--out", str(ev), "--n-points",
                         str(TRAIN_CFG["n_eval_points"])]) == 0
        eval_err = capsys.readouterr().err
        header, row = (run_dir / "metrics.csv").read_text().splitlines()
        fit_scores = dict(zip(header.split(","), row.split(",")))
        mean_row = (ev / "eval.csv").read_text().splitlines()[-1].split(",")
        assert [fit_scores["d_pcl"], fit_scores["d_depth"]] == mean_row[2:4]
        assert all(np.isfinite(float(v)) for v in mean_row[2:4])
        if failure is None:
            assert "failed" not in fit_err and "failed" not in eval_err
        else:
            assert f"failed validation frames: 4 {failure}" in fit_err
            assert f"failed frames: 4 {failure}" in eval_err


class TestEval:
    def test_reports_finite_metrics(self, ds, run, tmp_path):
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(run / "model_final.bin"),
                         "--dataset", str(ds), "--out", str(out),
                         "--n-points", "250", "--frames", "0"]) == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "frame_id,instance_id,d_pcl,d_depth," \
                           "d_depth_anchored"
        assert len(lines) == 3 and lines[-1].startswith("mean,,")
        vals = [float(v) for v in lines[1].split(",")[2:]]
        assert all(np.isfinite(v) and v > 0 for v in vals)

    def test_oracle_checkpoint_near_zero(self, oracle, tmp_path):
        ds_flat, ckpt = oracle
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_flat), "--out", str(out),
                         "--n-points", "400"]) == 0
        rows = (out / "eval.csv").read_text().splitlines()[1:-1]
        for row in rows:
            _, _, d_pcl, _, d_anchor = row.split(",")
            assert float(d_pcl) < 1e-6
            assert float(d_anchor) < 1e-6

    def test_deterministic_reports(self, oracle, tmp_path):
        ds_flat, ckpt = oracle
        texts = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert cli.main(["eval", "--checkpoint", str(ckpt),
                             "--dataset", str(ds_flat), "--out", str(out),
                             "--n-points", "300", "--frames", "0", "2"]) == 0
            texts.append((out / "eval.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_ply_vertex_count_matches_flag(self, oracle, tmp_path):
        ds_flat, ckpt = oracle
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_flat), "--out", str(out),
                         "--n-points", "300", "--frames", "1",
                         "--dump-ply"]) == 0
        pts, _ = metrics.load_ply(out / "pred_frame0001.ply")
        assert pts.shape == (300, 3)

    def test_degenerate_frame_is_nan_and_counted(self, ds, run, tmp_path,
                                                 monkeypatch, capsys):
        real = metrics.point_cloud_distance
        calls = []

        def second_degenerate(pred, gt):
            calls.append(None)
            if len(calls) == 2:
                raise DegenerateCloud("forced")
            return real(pred, gt)

        monkeypatch.setattr(metrics, "point_cloud_distance",
                            second_degenerate)
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(run / "model_final.bin"),
                         "--dataset", str(ds), "--out", str(out),
                         "--n-points", "100", "--frames", "0", "1", "2"]) == 0
        assert "failed frames: 1 (DegenerateCloud)" in capsys.readouterr().err
        lines = (out / "eval.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines[1:]]
        assert cells[1][2] == "nan"
        d_pcl = [float(c[2]) for c in (cells[0], cells[2])]
        assert all(np.isfinite(d_pcl))
        assert cells[3][2] == repr(float(np.mean(d_pcl)))
        for col in (3, 4):  # the frame's depth scores are unaffected
            assert cells[3][col] == repr(float(np.mean(
                [float(c[col]) for c in cells[:3]])))

    def test_healthy_eval_reports_no_failures(self, ds, run, tmp_path,
                                              capsys):
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(run / "model_final.bin"),
                         "--dataset", str(ds), "--out", str(out),
                         "--n-points", "100", "--frames", "0", "1", "2"]) == 0
        assert "failed frames" not in capsys.readouterr().err
        cells = [line.split(",")
                 for line in (out / "eval.csv").read_text().splitlines()[1:]]
        for col in (2, 3, 4):  # the mean row is the plain column mean
            vals = [float(c[col]) for c in cells[:3]]
            assert all(np.isfinite(vals))
            assert cells[3][col] == repr(float(np.mean(vals)))

    def test_frame_out_of_range(self, oracle, tmp_path):
        ds_flat, ckpt = oracle
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_flat),
                         "--out", str(tmp_path / "x"),
                         "--frames", "99"]) == cli.EXIT_CODES[InvalidSpec]


class TestGradcheck:
    def test_pristine_rows_pass(self):
        rows = cli.run_gradcheck(n_points=6, seed=0)
        assert len(rows) == len(cli.GRADCHECK_ROWS)
        assert all(ok for _, _, ok in rows)

    def test_corrupt_one_fails_exactly_one(self):
        rows = cli.run_gradcheck(corrupt_one=True, n_points=6, seed=0)
        assert sum(not ok for _, _, ok in rows) == 1
        assert not rows[0][2]

    def test_scope_filters(self):
        rows = cli.run_gradcheck(scope="pseudo_huber", n_points=4, seed=0)
        assert [r[0] for r in rows] == ["pseudo_huber"]
        with pytest.raises(InvalidSpec):
            cli.run_gradcheck(scope="no_such_loss")

    def test_exit_codes(self, tmp_path):
        out = tmp_path / "gc"
        assert cli.main(["gradcheck", "--points", "3", "--scope", "prior",
                         "--out", str(out)]) == 0
        assert (out / "gradcheck.csv").exists()
        assert (out / "manifest.json").exists()
        assert cli.main(["gradcheck", "--points", "3", "--scope", "prior",
                         "--corrupt-one"]) == 1


@pytest.fixture(scope="module")
def flat_model(oracle, work):
    ds_flat, _ = oracle
    cat = synth.load_category(ds_flat)
    mdl = affine_oracle_model(cat, np.random.default_rng(8))
    path = work / "transfer.bin"
    model_mod.save_model(path, mdl)
    return ds_flat, path


class TestTextureTransfer:
    def test_output_matches_target_dimensions(self, flat_model, tmp_path):
        ds_flat, ckpt = flat_model
        out = tmp_path / "t.ppm"
        assert cli.main(["texture-transfer", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_flat), "--target-frame", "0",
                         "--texture-frame", "3", "--out", str(out)]) == 0
        img = cli.read_ppm(out)
        assert img.shape == (SPEC["image_h"], SPEC["image_w"], 3)
        assert (tmp_path / "t.ppm.manifest.json").exists()

    def test_background_copied_untouched(self, flat_model, tmp_path):
        ds_flat, ckpt = flat_model
        out = tmp_path / "t.ppm"
        cli.main(["texture-transfer", "--checkpoint", str(ckpt),
                  "--dataset", str(ds_flat), "--target-frame", "0",
                  "--texture-frame", "3", "--out", str(out)])
        img = cli.read_ppm(out)
        fr = synth.load_category(ds_flat).frames[0]
        orig_q = np.rint(np.clip(fr.image, 0, 1) * 255.0) / 255.0
        np.testing.assert_array_equal(img[~fr.mask], orig_q[~fr.mask])

    def test_invariant_to_texture_frame_alpha(self, oracle, tmp_path):
        ds_flat, _ = oracle
        cat = synth.load_category(ds_flat)
        mdl = affine_oracle_model(cat, np.random.default_rng(8))
        mdl.latents["beta"][:] = 0.3 * np.random.default_rng(9) \
            .standard_normal(mdl.latents["beta"].shape)
        outs = []
        for tag, bump in (("base", 0.0), ("alpha", 0.0), ("beta", 0.0)):
            if tag == "alpha":
                mdl.latents["alpha"][3] += 5.0
            if tag == "beta":
                mdl.latents["beta"][3] += 5.0
            ckpt = tmp_path / f"{tag}.bin"
            model_mod.save_model(ckpt, mdl)
            out = tmp_path / f"{tag}.ppm"
            assert cli.main(["texture-transfer", "--checkpoint", str(ckpt),
                             "--dataset", str(ds_flat),
                             "--target-frame", "0", "--texture-frame", "3",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]    # style frame's alpha is never read
        assert outs[0] != outs[2]    # but its beta is

    def test_self_transfer_reproduces_constant_albedo(self, work, tmp_path):
        spec = write_json(tmp_path / "s.json", {
            **SPEC, "sh_degree": 1, "constant_albedo": True,
            "sigma_descriptor": 0.0, "sigma_label": 0.0,
        })
        ds_c = tmp_path / "ds_c"
        assert cli.main(["synth-gen", "--out", str(ds_c), "--spec", spec,
                         "--seed", "2"]) == 0
        cat = synth.load_category(ds_c)
        color = cat.albedo(np.array([[0.0, 0.0, 1.0]]), 0)[0]
        mdl = affine_oracle_model(cat, np.random.default_rng(5))
        tex = mdl.nets["texture"]
        tex.values[:] = 0.0
        tex.view("b_out")[:] = np.log(color / (1.0 - color))
        ckpt = tmp_path / "const.bin"
        model_mod.save_model(ckpt, mdl)
        out = tmp_path / "t.ppm"
        assert cli.main(["texture-transfer", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_c), "--target-frame", "0",
                         "--texture-frame", "0", "--out", str(out)]) == 0
        img = cli.read_ppm(out)
        fr = cat.frames[0]
        assert np.abs(img[fr.mask] - fr.image[fr.mask]).max() <= 1.0 / 255.0


class TestPpmRoundtrip:
    def test_roundtrip_is_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((7, 5, 3))
        cli.write_ppm(tmp_path / "x.ppm", img)
        back = cli.read_ppm(tmp_path / "x.ppm")
        np.testing.assert_allclose(back, np.rint(img * 255) / 255.0,
                                   atol=1e-12)

    def test_rejects_non_ppm(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"not an image")
        with pytest.raises(IoError):
            cli.read_ppm(tmp_path / "x.ppm")


def _rewrite_npz(path, edit):
    with np.load(path) as z:
        arrays = dict(z)
    edit(arrays)
    np.savez(path, **arrays)


def _rewrite_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# damage -> how it is done to a copy of a dataset directory
DATASET_DAMAGE = {
    "frame_file_missing":
        lambda root: (root / "frames" / "frame_0001.npz").unlink(),
    "frame_array_missing": lambda root: _rewrite_npz(
        root / "frames" / "frame_0001.npz", lambda a: a.pop("colors")),
    "frame_array_extra": lambda root: _rewrite_npz(
        root / "frames" / "frame_0001.npz",
        lambda a: a.update(bogus=np.zeros(1))),
    "arrays_key_missing": lambda root: _rewrite_npz(
        root / "arrays.npz", lambda a: a.pop("betas")),
    "label_field_missing": lambda root: _rewrite_json(
        root / "labels.json", lambda d: d["frames"][1].pop("alpha")),
    "unknown_spec_field": lambda root: _rewrite_json(
        root / "category.json", lambda d: d["spec"].update(bogus=1)),
}


def _one_error_line(capsys, name: str) -> bool:
    err = capsys.readouterr().err
    return err.count("error[") == 1 and f"error[{name}]" in err


class TestExitCodes:
    def test_distinct_and_documented(self):
        codes = list(cli.EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert min(codes) == 3          # 0 ok, 1 checks failed, 2 usage
        assert len(codes) == 16

    def test_malformed_checkpoint(self, oracle, tmp_path):
        ds_flat, _ = oracle
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        assert cli.main(["eval", "--checkpoint", str(bad),
                         "--dataset", str(ds_flat),
                         "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CODES[CheckpointError]

    def test_truncated_checkpoint(self, ds, run, tmp_path, capsys):
        bad = tmp_path / "cut.bin"
        bad.write_bytes((run / "model_final.bin").read_bytes()[:-100])
        code = cli.main(["eval", "--checkpoint", str(bad), "--dataset",
                         str(ds), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CODES[CheckpointError] == 17
        assert "error[CheckpointError]" in capsys.readouterr().err

    def test_model_header_missing_fields(self, ds, run, tmp_path, capsys):
        magic, _, payload = (run / "model_final.bin").read_bytes().split(
            b"\n", 2)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + b'\n{"version": 1}\n' + payload)
        code = cli.main(["eval", "--checkpoint", str(bad), "--dataset",
                         str(ds), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CODES[CheckpointError] == 17
        assert _one_error_line(capsys, "CheckpointError")

    @pytest.mark.parametrize("damage", sorted(DATASET_DAMAGE))
    def test_damaged_dataset(self, ds, run, tmp_path, capsys, damage):
        bad = tmp_path / "ds"
        shutil.copytree(ds, bad)
        DATASET_DAMAGE[damage](bad)
        code = cli.main(["eval", "--checkpoint", str(run / "model_final.bin"),
                         "--dataset", str(bad), "--out", str(tmp_path / "o"),
                         "--n-points", "100"])
        assert code == cli.EXIT_CODES[IoError] == 18
        assert _one_error_line(capsys, "IoError")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
