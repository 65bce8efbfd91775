"""The batch-major training loss against a per-frame reference.

``per_frame_total_loss`` is the loss as a loop over frames: every term,
pose and projection of one frame at a time, built from generic tape ops
(the image ops read a stack of one image). ``losses.total_loss`` builds the
same objective batch-major, one graph node per op per step; the two must
agree to rounding in value, breakdown and every leaf gradient.
"""

import functools
import weakref

import numpy as np
import pytest
from conftest import window_mean_pyramid

from defmap import geom, losses, nets, synth, tape
from defmap import model as model_mod

REL = 1e-12


# -- the per-frame reference ---------------------------------------------------


def _ph_rows(z, eps):
    s = tape.vsum(z * z, axis=1)
    return (tape.sqrt(s * (1.0 / (eps * eps)) + 1.0) - 1.0) * eps


def _rotation(raw):
    a, b = raw[slice(0, 3)], raw[slice(3, 6)]
    c1 = a / tape.sqrt(tape.vsum(a * a))
    b_perp = b - tape.vsum(c1 * b) * c1
    c2 = b_perp / tape.sqrt(tape.vsum(b_perp * b_perp))
    return tape.stack([c1, c2, tape.cross3(c1, c2)])


def _project(cam, X, min_depth):
    if cam.kind == geom.ORTHOGRAPHIC:
        return X[:, :2]
    z = tape.clip(X[:, 2], min_depth, np.inf)
    (fx, skew, cx), (fy, cy) = cam.K[0], cam.K[1, 1:]
    x_z, y_z = X[:, 0] / z, X[:, 1] / z
    return tape.stack([x_z * fx + y_z * skew + cx, y_z * fy + cy])


def _predict(mdl, leaves, frame, desc):
    kappa = model_mod.embed_pixels(mdl, leaves, desc)
    if mdl.mode == model_mod.AMORTIZED:
        # each head on the frame's one (1,G) row
        alpha, beta, v6 = (nets.mlp_forward(leaves[f"net:{key}"],
                                            mdl.nets[key].config,
                                            frame.instance_desc[None])[0]
                           for key in ("shape_head", "texture_head",
                                       "view_head"))
    else:
        alpha, beta, v6 = (leaves[f"lat:{key}"][frame.frame_id]
                           for key in ("alpha", "beta", "view6d"))
    return kappa, alpha, beta, _rotation(v6)


def _repro(X_R, cam, pixels, cfg):
    if cam.kind == geom.ORTHOGRAPHIC:
        t = tape.Var(np.zeros(3))
        return tape.vsum(_ph_rows(X_R[:, :2] - pixels, cfg.eps_geom)), t
    rays = geom.ray_direction(cam, pixels)
    A = len(rays) * np.eye(3) - rays.T @ rays
    r_dot_x = tape.vsum(X_R * rays, axis=1, keepdims=True)
    t = tape.solve(tape.Var(A), tape.vsum(r_dot_x * rays - X_R, axis=0))
    X = X_R + t
    resid = X - tape.vsum(X * rays, axis=1, keepdims=True) * rays
    return tape.vsum(_ph_rows(resid, cfg.eps_geom)), t


def per_frame_total_loss(mdl, leaves, frames, weights, cfg, rng, n_pixels):
    """``losses.total_loss`` as one loop over the frames of the batch."""
    acc = dict.fromkeys(("prior", "repro", "emb_align", "mask", "texture"))
    subsets, alphas, rotations, translations = [], [], [], []

    def add(key, value):
        acc[key] = value if acc[key] is None else acc[key] + value

    for i, fr in enumerate(frames):
        idx = losses._frame_pixel_subset(fr, n_pixels, rng)
        subsets.append(idx)
        kappa, alpha, beta, R = _predict(mdl, leaves, fr, fr.descriptors[idx])
        alphas.append(alpha)
        rotations.append(R)

        lab = fr.labels
        vis = np.flatnonzero(lab.visible)
        kp_basis = model_mod.basis_at(mdl, leaves, model_mod.embed_pixels(
            mdl, leaves, fr.kp_desc[vis]))
        diff = tape.reshape(kp_basis - lab.basis[vis], (vis.size, -1))
        add("prior", tape.vmean(_ph_rows(diff, cfg.eps_geom))
            + weights.w_alpha * losses.pseudo_huber_rows(alpha - lab.alpha,
                                                         cfg.eps_geom)
            + weights.w_rot * (3.0 - tape.vsum(R * lab.rotation)) * 0.5)

        basis = model_mod.basis_at(mdl, leaves, kappa)
        if i == 0:
            B_target = basis
        X_R = tape.batch_matvec(basis, alpha) @ tape.transpose(R)
        repro, t = _repro(X_R, fr.camera, fr.pix_y[idx], cfg)
        translations.append(t)
        add("repro", repro)

        u = nets.l2norm_rows(tape.vsum(kappa, axis=0) * (1.0 / len(idx)))
        add("emb_align", tape.vsum(R[2] * u))

        sphere = losses.sample_sphere(cfg.n_mask_samples, rng)
        if i == 0:
            B_sphere = model_mod.basis_at(mdl, leaves, tape.Var(sphere))
        X = tape.batch_matvec(B_sphere, alpha) @ tape.transpose(R) + t
        px = fr.raster.to_px(_project(fr.camera, X, cfg.min_depth))
        h, w = fr.mask_dist.shape
        inside = tape.clip(px, np.zeros(2), np.array([w - 1.0, h - 1.0]))
        over = px - inside
        d = tape.bilinear_sample([tape.array_rows(fr.mask_dist[..., None])],
                                 (h, w), tape.reshape(inside, (1, -1, 2)))
        add("mask", tape.vmean(d * d)
            + tape.vmean(tape.vsum(over * over, axis=1)))

        # the texture net on the concatenated input [kappa, beta per row]
        beta_rows = tape.Var(np.ones((len(idx), 1))) @ tape.reshape(beta,
                                                                      (1, -1))
        pred = tape.sigmoid(nets.mlp_forward(
            leaves["net:texture"], mdl.nets["texture"].config,
            tape.concat([tape.detach(kappa), beta_rows])))
        diff = pred - fr.colors[idx]
        percep = tape.as_var(0.0)
        for r in cfg.blur_radii:
            blurred = tape.window_mean((1, *fr.image.shape), fr.pix_rc[idx],
                                       diff, (r,), 0)[0]
            percep = percep + tape.vsum(_ph_rows(blurred, cfg.eps_color))
        add("texture",
            weights.w_tex_photo * tape.vsum(_ph_rows(diff, cfg.eps_color))
            + weights.w_tex_percep * percep)

    terms = {key: value * (1.0 / len(frames)) for key, value in acc.items()}
    min_k_raw, columns = 0.0, []
    target = frames[0]
    rc = target.pix_rc[subsets[0]]
    tgt_levels = window_mean_pyramid(target.image,
                                     cfg.blur_radii)[rc[:, 0], rc[:, 1]]
    for j in range(1, len(frames)):
        ref = frames[j]
        X = (tape.batch_matvec(B_target, alphas[j])
             @ tape.transpose(rotations[j]) + translations[j])
        px = ref.raster.to_px(_project(ref.camera, X, cfg.min_depth))
        per_pixel = None
        levels = window_mean_pyramid(ref.image, cfg.blur_radii)
        for lvl in range(levels.shape[2]):
            image = tape.array_rows(levels[:, :, lvl])
            sampled = tape.bilinear_sample([image], levels.shape[:2],
                                           tape.reshape(px, (1, -1, 2)))[0]
            cost = _ph_rows(sampled - tgt_levels[:, lvl], cfg.eps_color)
            per_pixel = cost if per_pixel is None else per_pixel + cost
        if np.mean(tape.clamp_mask(ref.image.shape, px.data)) \
                <= cfg.max_clamped_frac:
            columns.append(per_pixel)
    if columns:
        terms["min_k"], raw = losses.min_k_loss(
            tape.stack(columns), min(cfg.min_k, len(columns)))
        min_k_raw = float(raw.data)

    total = tape.as_var(0.0)
    breakdown = dict.fromkeys(losses.TERMS, 0.0)
    for key, fields in losses.TERMS.items():
        if key in terms:
            breakdown[key] = float(terms[key].data)
            w = getattr(weights, fields[0]) if len(fields) == 1 else 1.0
            total = total + w * terms[key]
    breakdown.update(min_k_raw=min_k_raw, min_k_refs=float(len(columns)),
                     total=float(total.data))
    return total, breakdown


# -- fixtures ------------------------------------------------------------------


@functools.cache
def category(kind):
    """Ten frames, two per instance, small enough to build in a second."""
    return synth.generate_category(synth.CategorySpec(
        seed=23, n_instances=5, frames_per_instance=2, image_h=20,
        image_w=20, camera_kind=kind, n_shape_coeffs=2, n_keypoints=6,
        descriptor_dim=6, instance_desc_dim=5, n_texture_params=3,
        n_surface_samples=1200))


def generic_model(mode, n_frames, seed=4):
    """A fresh model moved to a generic point, with shapes large enough
    that mask samples straddle the orthographic silhouettes; perspective
    ones land partly behind the camera, on the depth clamp."""
    dims = model_mod.ModelDims(
        descriptor_dim=6, instance_dim=5, n_shape_coeffs=2,
        n_texture_coeffs=3, embed_hidden=8, embed_blocks=1, basis_hidden=8,
        basis_blocks=1, texture_hidden=8, texture_blocks=1, head_hidden=6,
        head_blocks=1)
    rng = np.random.default_rng(seed)
    mdl = model_mod.init_model(dims, mode, rng, n_frames=n_frames)
    for arr in mdl.param_arrays().values():
        arr += 0.25 * rng.standard_normal(arr.shape)
    mdl.nets["basis"].view("w_out")[:] *= 2.0
    mdl.nets["basis"].view("b_out")[:] *= 2.0
    return mdl


def both_losses(mdl, frames, cfg, weights, n_pixels=25, seed=9):
    """(total, breakdown, grads, rng state) from the batched loss and the
    reference, each on fresh leaves and a fresh rng of one seed."""
    out = []
    for build in (losses.total_loss, per_frame_total_loss):
        leaves = model_mod.make_leaves(mdl)
        rng = np.random.default_rng(seed)
        total, br = build(mdl, leaves, frames, weights, cfg, rng, n_pixels)
        value, grads = tape.collect(total, leaves)
        out.append((value, br, grads, rng.bit_generator.state))
    return out


def assert_agree(got, want):
    (v, br, grads, state), (v_ref, br_ref, grads_ref, state_ref) = got, want
    assert state == state_ref  # one pixel subset and one sphere set a frame
    assert v == pytest.approx(v_ref, rel=REL, abs=0.0)
    assert br.keys() == br_ref.keys()
    for key in br:
        assert br[key] == pytest.approx(br_ref[key], rel=REL, abs=0.0), key
    for name, g_ref in grads_ref.items():
        scale = np.max(np.abs(g_ref))
        assert np.max(np.abs(grads[name] - g_ref)) <= REL * scale, name


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("n_frames", [1, 3, 10])
@pytest.mark.parametrize("mode", [model_mod.AMORTIZED,
                                  model_mod.DIRECT_LATENT])
@pytest.mark.parametrize("kind", [geom.ORTHOGRAPHIC, geom.PERSPECTIVE])
def test_batched_loss_matches_the_per_frame_reference(kind, mode, n_frames):
    cat = category(kind)
    n_lat = len(cat.frames) if mode == model_mod.DIRECT_LATENT else 0
    mdl = generic_model(mode, n_lat)
    frames = [cat.frames[i] for i in (0, 1, 5, 2, 7, 9, 4, 8, 3, 6)[:n_frames]]
    weights = losses.LossWeights.defaults_for(kind)
    got, want = both_losses(mdl, frames, losses.LossConfig(n_mask_samples=60),
                            weights)
    assert want[1]["mask"] > 0.0  # the mask term is not flat here
    assert n_frames == 1 or want[1]["min_k_refs"] > 0
    assert_agree(got, want)


@pytest.mark.parametrize("radii", [(), (1, 2, 4)])
def test_the_reference_agrees_at_any_blur_radii(radii):
    cat = category(geom.ORTHOGRAPHIC)
    mdl = generic_model(model_mod.AMORTIZED, 0)
    cfg = losses.LossConfig(n_mask_samples=60, blur_radii=radii)
    got, want = both_losses(mdl, cat.frames[:3], cfg, losses.LossWeights())
    assert want[1]["min_k_refs"] > 0
    assert_agree(got, want)


def test_a_reference_out_of_view_is_dropped_alike():
    cat = category(geom.ORTHOGRAPHIC)
    mdl = generic_model(model_mod.DIRECT_LATENT, len(cat.frames), seed=4)
    frames = cat.frames[:6]
    # frame 3's shape, fifty times too large, carries the target's points
    # off its image, past the default max_clamped_frac
    mdl.latents["alpha"][3] *= 50.0
    got, want = both_losses(mdl, frames, losses.LossConfig(n_mask_samples=60),
                            losses.LossWeights())
    assert want[1]["min_k_refs"] == len(frames) - 2
    assert_agree(got, want)


def _graph_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_graph_size_does_not_grow_with_the_batch():
    cat = category(geom.ORTHOGRAPHIC)
    mdl = generic_model(model_mod.AMORTIZED, 0)
    counts = []
    # nor with the number of blur radii
    for n_frames, radii in ((2, (2, 4)), (6, (2, 4)), (6, (2,)),
                            (6, (1, 2, 4))):
        total, br = losses.total_loss(
            mdl, model_mod.make_leaves(mdl), cat.frames[:n_frames],
            losses.LossWeights(),
            losses.LossConfig(n_mask_samples=60, blur_radii=radii),
            np.random.default_rng(9), 25)
        assert br["min_k_refs"] == n_frames - 1
        counts.append(_graph_nodes(total))
    assert len(set(counts)) == 1, counts


def inside_silhouettes():
    """A fresh model, whose shapes sit near the origin, inside every
    silhouette of the orthographic category, and a 61-sample mask config."""
    mdl = model_mod.init_model(generic_model(model_mod.AMORTIZED, 0).dims,
                               model_mod.AMORTIZED, np.random.default_rng(2))
    return mdl, losses.LossConfig(n_mask_samples=61)


def test_a_batch_inside_its_silhouettes_has_no_mask_graph(monkeypatch):
    cat = category(geom.ORTHOGRAPHIC)
    mdl, cfg = inside_silhouettes()
    frames = cat.frames[:4]
    sphere_basis = []
    real = nets.mlp_forward

    def spy(theta, mlp_cfg, x, *frame_cols):
        out = real(theta, mlp_cfg, x, *frame_cols)
        if mlp_cfg == mdl.nets["basis"].config and out.shape[0] == 61:
            sphere_basis.append(out)
        return out

    monkeypatch.setattr(nets, "mlp_forward", spy)
    total, br = losses.total_loss(mdl, model_mod.make_leaves(mdl), frames,
                                  losses.LossWeights(), cfg,
                                  np.random.default_rng(9), 25)
    assert br["mask"] == 0.0 and len(sphere_basis) == 1
    seen, stack = {id(total)}, [total]
    while stack:
        for p in stack.pop()._parents:
            assert p is not sphere_basis[0]
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    monkeypatch.undo()
    # value and gradients still equal the reference's, which builds the term
    got, want = both_losses(mdl, frames, cfg, losses.LossWeights())
    assert_agree(got, want)


def test_the_sphere_basis_is_freed_before_the_texture_term(monkeypatch):
    # with the mask term the graph-free zero, nothing keeps the basis net's
    # output on the sphere samples alive into the later terms
    mdl, cfg = inside_silhouettes()
    sphere_basis, alive_at_texture = [], []
    real_mlp, real_texture = nets.mlp_forward, losses.texture_loss

    def spy_mlp(theta, mlp_cfg, x, *frame_cols):
        out = real_mlp(theta, mlp_cfg, x, *frame_cols)
        if mlp_cfg == mdl.nets["basis"].config and out.shape[0] == 61:
            sphere_basis.append(weakref.ref(out))
        return out

    def spy_texture(*args):
        alive_at_texture.extend(ref() is not None for ref in sphere_basis)
        return real_texture(*args)

    monkeypatch.setattr(nets, "mlp_forward", spy_mlp)
    monkeypatch.setattr(losses, "texture_loss", spy_texture)
    _, br = losses.total_loss(mdl, model_mod.make_leaves(mdl),
                              category(geom.ORTHOGRAPHIC).frames[:4],
                              losses.LossWeights(), cfg,
                              np.random.default_rng(9), 25)
    assert br["mask"] == 0.0
    assert alive_at_texture == [False]
