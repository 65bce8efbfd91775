"""Checkpoint container: model, train-state and MLP files share one layout.

Every malformed file of each kind is a CheckpointError, also one whose
header fields differ from the format, a missing one is an IoError, and a
loaded file saves back to the same bytes.
"""

import json

import numpy as np
import pytest

from defmap import model, nets, train
from defmap.errors import CheckpointError, IoError

DIMS = model.ModelDims(
    descriptor_dim=6, instance_dim=5, n_shape_coeffs=4, n_texture_coeffs=3,
    embed_hidden=8, embed_blocks=1, basis_hidden=8, basis_blocks=1,
    texture_hidden=8, texture_blocks=1, head_hidden=8, head_blocks=1,
)


def direct_model():
    rng = np.random.default_rng(1)
    mdl = model.init_model(DIMS, model.DIRECT_LATENT, rng, n_frames=3)
    for arr in mdl.latents.values():
        arr[...] = rng.standard_normal(arr.shape)
    return mdl


def train_state(mdl):
    state = train.init_state(mdl, train.TrainConfig())
    rng = np.random.default_rng(2)
    for v in state.velocity.values():
        v[...] = rng.standard_normal(v.shape)
    state.step, state.epoch, state.best = 5, 1, 0.25
    return state


def mlp():
    cfg = nets.MlpConfig(in_dim=3, hidden_dim=5, out_dim=2, n_res_blocks=1)
    return nets.init_params(cfg, np.random.default_rng(3))


# kind -> (make the object, save it, load it)
KINDS = {
    "model": (direct_model, model.save_model, model.load_model),
    "state": (lambda: train_state(direct_model()), train.save_state,
              lambda p: train.load_state(p, direct_model())),
    "mlp": (mlp, nets.save_mlp, nets.load_mlp),
}


def _split(data: bytes):
    """(magic line, header line without its newline, payload)."""
    m = data.index(b"\n") + 1
    h = data.index(b"\n", m)
    return data[:m], data[m:h], data[h + 1:]


def _edit_header(edit):
    """A corruption that applies ``edit`` to the parsed header in place."""
    def corrupt(m, h, p):
        header = json.loads(h)
        edit(header)
        return m + json.dumps(header).encode() + b"\n" + p
    return corrupt


CORRUPTIONS = {
    "wrong_magic": lambda m, h, p: b"X" + m[1:] + h + b"\n" + p,
    "no_newline_after_header": lambda m, h, p: m + h,
    "malformed_json_header": lambda m, h, p: m + h[:-1] + b"\n" + p,
    "header_not_an_object": lambda m, h, p: m + b"[" + h + b"]\n" + p,
    "payload_cut_by_8_bytes": lambda m, h, p: m + h + b"\n" + p[:-8],
    "payload_cut_to_nothing": lambda m, h, p: m + h + b"\n",
    "header_field_missing": _edit_header(lambda d: d.pop(min(d))),
    "unknown_header_field": _edit_header(lambda d: d.update(bogus=1)),
    "unknown_mode": _edit_header(lambda d: d.update(mode="bogus")),
    "dims_field_missing": _edit_header(lambda d: d["dims"].pop("head_blocks")),
    "unknown_dims_field": _edit_header(lambda d: d["dims"].update(bogus=1)),
    "dims_width_not_a_number": _edit_header(
        lambda d: d["dims"].update(embed_hidden="8")),
    "nets_of_other_mode": _edit_header(lambda d: d.update(mode="amortized")),
    "net_missing": _edit_header(lambda d: d["nets"].pop("basis")),
    "net_count_missing": _edit_header(lambda d: d["nets"]["basis"].pop("count")),
    "net_config_two_numbers": _edit_header(
        lambda d: d["nets"]["basis"].update(config=[3, 8])),
    "net_config_zero_width": _edit_header(
        lambda d: d["nets"]["basis"].update(config=[3, 0, 12, 1, "relu"])),
    "net_config_other_activation": _edit_header(
        lambda d: d["nets"]["basis"].update(config=[3, 8, 12, 1, "tanh"])),
    "latent_shape_wrong": _edit_header(
        lambda d: d["latents"]["beta"].update(shape=[1, 9])),
    "latent_rows_differ": _edit_header(
        lambda d: d["latents"]["alpha"].update(shape=[2, 4], count=8)),
    "array_count_missing": _edit_header(
        lambda d: d["arrays"]["params"]["net:basis"].pop("count")),
    "velocity_shape_wrong": _edit_header(
        lambda d: d["arrays"]["velocity"]["lat:alpha"].update(shape=[4, 3])),
    "unknown_arrays_section": _edit_header(
        lambda d: d["arrays"].update(bogus={})),
    "zero_width": _edit_header(lambda d: d.update(hidden_dim=0)),
    "in_dim_a_string": _edit_header(lambda d: d.update(in_dim="3")),
    "in_dim_a_float": _edit_header(lambda d: d.update(in_dim=3.0)),
    "n_res_blocks_a_bool": _edit_header(lambda d: d.update(n_res_blocks=True)),
    "rng_empty": _edit_header(lambda d: d.update(rng={})),
    "rng_state_not_a_dict": _edit_header(
        lambda d: d.update(rng={"bit_generator": "PCG64", "state": 3})),
    "step_a_string": _edit_header(lambda d: d.update(step="5")),
    "epoch_a_bool": _edit_header(lambda d: d.update(epoch=True)),
    "lr_null": _edit_header(lambda d: d.update(lr=None)),
    "momentum_a_string": _edit_header(lambda d: d.update(momentum="0.9")),
    "lr_scale_a_list": _edit_header(lambda d: d.update(lr_scale=[])),
    "lr_scale_key_missing": _edit_header(
        lambda d: d["lr_scale"].pop("net:basis")),
    "lr_scale_value_null": _edit_header(
        lambda d: d["lr_scale"].update({"net:basis": None})),
}
#: corruptions of the train-state header's scalars and rng
STATE_HEADER = ("rng_empty", "rng_state_not_a_dict", "step_a_string",
                "epoch_a_bool", "lr_null", "momentum_a_string",
                "lr_scale_a_list", "lr_scale_key_missing",
                "lr_scale_value_null")
# corruptions of header fields that only one kind of file has
ONLY = {
    "model": ("unknown_mode", "dims_field_missing", "unknown_dims_field",
              "dims_width_not_a_number", "nets_of_other_mode", "net_missing",
              "net_count_missing", "net_config_two_numbers",
              "net_config_zero_width", "net_config_other_activation",
              "latent_shape_wrong", "latent_rows_differ"),
    "state": ("array_count_missing", "velocity_shape_wrong",
              "unknown_arrays_section", *STATE_HEADER),
    "mlp": ("zero_width", "in_dim_a_string", "in_dim_a_float",
            "n_res_blocks_a_bool"),
}
CASES = [(kind, c) for kind in sorted(KINDS) for c in sorted(CORRUPTIONS)
         if all(c not in names for k, names in ONLY.items() if k != kind)]


@pytest.mark.parametrize("kind,corruption", CASES)
def test_corrupt_file_is_checkpoint_error(tmp_path, kind, corruption):
    make, save, load = KINDS[kind]
    path = tmp_path / "ckpt.bin"
    save(path, make())
    path.write_bytes(CORRUPTIONS[corruption](*_split(path.read_bytes())))
    with pytest.raises(CheckpointError):
        load(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_missing_file_is_io_error(tmp_path, kind):
    with pytest.raises(IoError):
        KINDS[kind][2](tmp_path / "missing.bin")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_load_save_is_byte_identical(tmp_path, kind):
    make, save, load = KINDS[kind]
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save(first, make())
    save(second, load(first))
    assert second.read_bytes() == first.read_bytes()
