"""The activation parameter table: one row per dataclass field, and every row
round-trips between CLI flags, activation kinds and model files."""

from dataclasses import fields

import pytest

from modhtan.activations import (
    PARAMS,
    RETIRED_KEYS,
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

# A model file as saved before six fields were retired; their rows hold the
# only values that still load (the cutoff was inert at them)
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
RETIRED_ROWS = ("modhtan_k_o = 2.0\n", "modhtan_x_cutoff = 10.0\n", "modhtan_center_normalize = on\n",
                "modhtan_x_norm_clamp = 50.0\n", "rnf_n = 1.0\n", "rnf_m = 1.0\n")


@pytest.mark.parametrize("owner, name", LEAF_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in LEAF_FIELDS])
def test_every_leaf_field_has_exactly_one_row(owner, name):
    assert sum((p.owner, p.field) == (owner, name) for p in PARAMS) == 1


def test_rows_have_distinct_keys_and_flags():
    keys = [p.key for p in PARAMS]
    flags = [p.flag for p in PARAMS]
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
    values[param.key] = next(c for c in param.choices if c != values[param.key]) if param.choices else "3"
    return kind_from_fields(values)


@pytest.mark.parametrize("param", PARAMS, ids=[p.key for p in PARAMS])
def test_row_round_trips(param, tmp_path):
    kind = _changed_kind(param)
    values = kind_to_fields(kind)
    assert values[param.key] != param.default
    assert kind_from_fields(values) == kind
    assert kind_to_fields(kind_from_fields(values)) == values

    argv = ["curves", "--fn", kind.name]
    for p in PARAMS:
        if p.key in values:
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
    assert again.read_text() == "".join(
        line for line in OLD_MODEL_FILE.splitlines(keepends=True) if line not in RETIRED_ROWS
    )


@pytest.mark.parametrize("key, value", [("modhtan_k_o", "3.0"), ("modhtan_k_o", "0.5"), ("modhtan_k_o", "nan"),
                                        ("modhtan_center_normalize", "off"), ("modhtan_x_norm_clamp", "5.0"),
                                        ("modhtan_x_norm_clamp", "inf"), ("rnf_n", "3.0"), ("rnf_n", "1"),
                                        ("rnf_m", "0.5"), ("rnf_m", "nan")])
def test_retired_key_away_from_its_kept_value_is_value_error(tmp_path, key, value):
    path = tmp_path / "model.txt"
    kept_row = f"{key} = {RETIRED_KEYS[key]}\n"
    assert kept_row in RETIRED_ROWS
    path.write_text(OLD_MODEL_FILE.replace(kept_row, f"{key} = {value}\n"))
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {key} is retired; only {RETIRED_KEYS[key]} loads, got {value!r}"


def test_retired_cutoff_is_ignored(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(OLD_MODEL_FILE.replace("modhtan_x_cutoff = 10.0\n", "modhtan_x_cutoff = 25.0\n"))
    assert load_model(path).hidden_kind == ModHtan(offset_mode=FixedOffset(3.5), euler_mode="direct")
