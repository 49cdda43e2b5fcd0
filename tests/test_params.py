"""The activation parameter table: one row per dataclass field, and every row
round-trips between CLI flags, activation kinds and model files."""

from dataclasses import fields

import pytest

from modhtan.activations import (
    PARAMS,
    AdaptiveOffset,
    Elu,
    FixedOffset,
    ModHtan,
    kind_from_fields,
    kind_to_fields,
)
from modhtan.cli import _activation_from_flags, build_parser
from modhtan.network import load_model, nguyen_widrow_init, save_model
from modhtan.rnf import RnfParams

# ModHtan.rnf is a nested group: its own fields are the rows
GROUP_FIELDS = {(ModHtan, "rnf")}

LEAF_FIELDS = [
    (cls, f.name)
    for cls in (Elu, ModHtan, FixedOffset, AdaptiveOffset, RnfParams)
    for f in fields(cls)
    if (cls, f.name) not in GROUP_FIELDS
]

# Default kinds that between them use every row of the table
BASE_KINDS = (Elu(), ModHtan(), ModHtan(offset_mode=FixedOffset(1.5)))

OLD_MODEL_FILE = """\
modhtan-mlp v1
n_in = 3
n_hidden = 2
n_out = 1
hidden_kind = modhtan
modhtan_k_o = 2.0
modhtan_x_cutoff = 10.0
modhtan_offset_mode = fixed
modhtan_offset_value = 3.5
modhtan_x_norm_clamp = 50.0
modhtan_center_normalize = on
modhtan_euler_mode = direct
rnf_a = 10000000
rnf_n = 1.0
rnf_m = 1.0
W1 = 0.5391829870251542 0.5251489541511322 0.4597029453038363 -0.31899426360528316 \
-0.5653694843552134 0.5970146743684452
b1 = 0.2007159655947286 -0.8773043763072039
W2 = 0.4104071780658378 0.4848034752375554
b2 = -0.21370339583382958
"""


@pytest.mark.parametrize("owner, name", LEAF_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in LEAF_FIELDS])
def test_every_leaf_field_has_exactly_one_row(owner, name):
    assert sum((p.owner, p.field) == (owner, name) for p in PARAMS) == 1


def test_rows_have_distinct_keys_and_flags():
    keys = [p.key for p in PARAMS]
    flags = [p.flag for p in PARAMS if p.flag is not None]
    assert len(set(keys)) == len(keys)
    assert len(set(flags)) == len(flags)


def _changed_kind(param):
    """A kind that uses the row, with that row set away from its default."""
    base = next(k for k in BASE_KINDS if param.key in kind_to_fields(k))
    values = {}  # rows of every base of the same activation, so a changed mode finds its rows
    for k in reversed(BASE_KINDS):
        if k.name == base.name:
            values.update(kind_to_fields(k))
    values.update(kind_to_fields(base))
    # rnf_n = 3 would put the Euler constant below 1, which ModHtan rejects
    number = "0.5" if param.key == "rnf_n" else "3"
    values[param.key] = next(c for c in param.choices if c != values[param.key]) if param.choices else number
    return kind_from_fields(values)


@pytest.mark.parametrize("param", PARAMS, ids=[p.key for p in PARAMS])
def test_row_round_trips(param, tmp_path):
    kind = _changed_kind(param)
    values = kind_to_fields(kind)
    assert values[param.key] != param.default
    assert kind_from_fields(values) == kind
    assert kind_to_fields(kind_from_fields(values)) == values

    if param.flag is not None:
        argv = ["curves", "--fn", kind.name]
        for p in PARAMS:
            if p.flag is not None and p.key in values:
                argv += [f"--{p.flag}", values[p.key]]
        assert _activation_from_flags(kind.name, build_parser().parse_args(argv)) == kind

    path = tmp_path / "model.txt"
    save_model(nguyen_widrow_init(2, 2, 1, kind, seed=5), path)
    assert load_model(path).hidden_kind == kind


def test_model_file_format_is_unchanged(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(OLD_MODEL_FILE)
    model = load_model(path)
    assert model.hidden_kind == ModHtan(offset_mode=FixedOffset(3.5), euler_mode="direct")
    again = tmp_path / "again.txt"
    save_model(model, again)
    assert again.read_text() == OLD_MODEL_FILE
