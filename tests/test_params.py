"""The activation parameter table: one row per dataclass field, every row
round-trips from CLI flags and from keyed text to an activation kind, a kind
is built from exactly the rows it reads, and a bad or missing row is a
ValueError."""

from dataclasses import MISSING, fields, replace

import pytest

from modhtan.activations import (
    KINDS,
    PARAMS,
    AdaptiveOffset,
    Elu,
    FixedOffset,
    Htan,
    ModHtan,
    SoftStep,
    kind_from_fields,
)
from modhtan.cli import _activation_from_flags, build_parser
from modhtan.rnf import RnfParams

# ModHtan.rnf is a nested group: its own fields are the rows
GROUP_FIELDS = {(ModHtan, "rnf")}

LEAF_FIELDS = [
    (cls, f.name)
    for cls in (Elu, ModHtan, FixedOffset, AdaptiveOffset, RnfParams)
    for f in fields(cls)
    if (cls, f.name) not in GROUP_FIELDS
]

# Every row's key at its default, as scripts/output_digest.py builds kinds
DEFAULTS = {p.key: p.default for p in PARAMS if p.default is not None}

# Per row: flags that set it away from its default, and the default kind with that one change
MODHTAN = ModHtan()
CHANGED = {
    "elu_alpha": (["--alpha", "3"], replace(Elu(), alpha=3.0)),
    "modhtan_offset_mode": (["--offset-mode", "fixed", "--offset", "1.5"],
                            replace(MODHTAN, offset_mode=FixedOffset(1.5))),
    "modhtan_offset_value": (["--offset-mode", "fixed", "--offset", "3"],
                             replace(MODHTAN, offset_mode=FixedOffset(3.0))),
    "modhtan_offset_delta": (["--delta", "3"], replace(MODHTAN, offset_mode=replace(AdaptiveOffset(), delta=3.0))),
    "modhtan_offset_kappa": (["--kappa", "3"], replace(MODHTAN, offset_mode=replace(AdaptiveOffset(), kappa=3.0))),
    "modhtan_euler_mode": (["--euler-mode", "direct"], replace(MODHTAN, euler_mode="direct")),
    "rnf_a": (["--rnf-a", "3"], replace(MODHTAN, rnf=replace(RnfParams(), a=3))),
}


@pytest.mark.parametrize("owner, name", LEAF_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in LEAF_FIELDS])
def test_every_leaf_field_has_exactly_one_row(owner, name):
    assert sum((p.owner, p.field) == (owner, name) for p in PARAMS) == 1


def test_rows_have_distinct_keys_and_flags():
    keys = [p.key for p in PARAMS]
    flags = [p.flag for p in PARAMS]
    assert len(set(keys)) == len(keys)
    assert len(set(flags)) == len(flags)


@pytest.mark.parametrize("param", PARAMS, ids=[p.key for p in PARAMS])
def test_row_round_trips(param):
    flags, kind = CHANGED[param.key]
    assert flags[flags.index(f"--{param.flag}") + 1] != param.default
    argv = ["curves", "--fn", kind.name, *flags]
    assert _activation_from_flags(kind.name, build_parser().parse_args(argv)) == kind

    by_flag = {f"--{p.flag}": p.key for p in PARAMS}
    rows = {by_flag[flag]: text for flag, text in zip(flags[::2], flags[1::2])}
    assert kind_from_fields({**DEFAULTS, "hidden_kind": kind.name, **rows}) == kind


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("modhtan_offset_delta", "big", "modhtan_offset_delta: expected float, got 'big'"),
        ("modhtan_offset_mode", "sometimes",
         "modhtan_offset_mode: expected one of ('adaptive', 'fixed'), got 'sometimes'"),
        ("rnf_a", "1.5", "rnf_a: expected int, got '1.5'"),
        ("hidden_kind", "relu", "hidden_kind: expected one of ('softstep', 'htan', 'elu', 'modhtan'), got 'relu'"),
        ("modhtan_offset_kappa", "inf", "kappa must be positive and finite, got inf"),
    ],
    ids=["float-row", "choices-row", "int-row", "unknown-kind", "infinite-kappa"],
)
def test_bad_row_is_value_error(key, text, message):
    with pytest.raises(ValueError) as info:
        kind_from_fields({**DEFAULTS, "hidden_kind": "modhtan", key: text})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "values, message",
    [
        (DEFAULTS, "missing hidden_kind"),
        ({**DEFAULTS, "hidden_kind": "modhtan", "modhtan_offset_mode": "fixed"}, "missing modhtan_offset_value"),
    ],
    ids=["kind", "fixed-offset"],
)
def test_missing_row_is_value_error(values, message):
    with pytest.raises(ValueError) as info:
        kind_from_fields(values)
    assert str(info.value) == message



# Per kind: the only rows it reads, and the kind they build
OWN_ROWS = {
    "softstep": ({}, SoftStep()),
    "htan": ({}, Htan()),
    "elu": ({"elu_alpha": "2.5"}, Elu(2.5)),
    "modhtan-adaptive": (
        {"modhtan_offset_mode": "adaptive", "modhtan_offset_delta": "0.5", "modhtan_offset_kappa": "0.25",
         "modhtan_euler_mode": "direct", "rnf_a": "7"},
        ModHtan(AdaptiveOffset(0.5, 0.25), RnfParams(7), "direct"),
    ),
    "modhtan-fixed": (
        {"modhtan_offset_mode": "fixed", "modhtan_offset_value": "-2", "modhtan_euler_mode": "constant",
         "rnf_a": "9"},
        ModHtan(FixedOffset(-2.0), RnfParams(9), "constant"),
    ),
}


@pytest.mark.parametrize("name", list(KINDS))
def test_default_rows_build_the_default_kind(name):
    assert kind_from_fields({**DEFAULTS, "hidden_kind": name}) == KINDS[name]()


@pytest.mark.parametrize("case", list(OWN_ROWS))
def test_kind_builds_from_its_own_rows_alone(case):
    rows, kind = OWN_ROWS[case]
    assert kind_from_fields({"hidden_kind": kind.name, **rows}) == kind


@pytest.mark.parametrize("param", PARAMS, ids=[p.key for p in PARAMS])
def test_default_text_parses_to_the_field_default(param):
    default = {f.name: f.default for f in fields(param.owner)}[param.field]
    if default is MISSING:
        assert param.default is None
    else:
        parsed = param.parse(param.default)
        assert parsed == (type(default) if isinstance(parsed, type) else default)


@pytest.mark.parametrize("param", PARAMS, ids=[p.key for p in PARAMS])
def test_every_row_its_kind_reads_is_required(param):
    rows, kind = next((rows, kind) for rows, kind in OWN_ROWS.values() if param.key in rows)
    values = {"hidden_kind": kind.name, **rows}
    del values[param.key]
    with pytest.raises(ValueError) as info:
        kind_from_fields(values)
    assert str(info.value) == f"missing {param.key}"
    with pytest.raises(ValueError) as info:
        kind_from_fields(values, label=lambda p: f"--{p.flag}")
    assert str(info.value) == f"missing --{param.flag}"


@pytest.mark.parametrize(
    "name, key, text, message",
    [
        ("elu", "elu_alpha", "x", "elu_alpha: expected float, got 'x'"),
        ("elu", "elu_alpha", "0", "alpha must be positive and finite, got 0.0"),
        ("modhtan", "modhtan_offset_delta", "-0.5", "delta must be >= 0 and finite, got -0.5"),
        ("modhtan", "modhtan_offset_delta", "nan", "delta must be >= 0 and finite, got nan"),
        ("modhtan", "modhtan_offset_kappa", "0", "kappa must be positive and finite, got 0.0"),
        ("modhtan", "modhtan_euler_mode", "sometimes",
         "modhtan_euler_mode: expected one of ('constant', 'direct'), got 'sometimes'"),
        ("modhtan", "rnf_a", "1", "calibration constant a must be >= 2 and at most the largest double, got 1"),
        ("modhtan", "rnf_a", "2", "1 + x must stay strictly below a = 2"),
    ],
    ids=["alpha-text", "alpha-zero", "delta-negative", "delta-nan", "kappa-zero", "euler-mode", "rnf-a-one",
         "rnf-a-two"],
)
def test_row_out_of_its_field_range_is_value_error(name, key, text, message):
    with pytest.raises(ValueError) as info:
        kind_from_fields({**DEFAULTS, "hidden_kind": name, key: text})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("0", "fixed offset_1 must be nonzero and finite, got 0.0"),
        ("inf", "fixed offset_1 must be nonzero and finite, got inf"),
        ("x", "modhtan_offset_value: expected float, got 'x'"),
    ],
    ids=["zero", "inf", "text"],
)
def test_bad_fixed_offset_is_value_error(text, message):
    values = {**DEFAULTS, "hidden_kind": "modhtan", "modhtan_offset_mode": "fixed", "modhtan_offset_value": text}
    with pytest.raises(ValueError) as info:
        kind_from_fields(values)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, extra",
    [
        ("htan", {"elu_alpha": "x", "modhtan_offset_mode": "sometimes"}),
        ("elu", {"rnf_a": "1.5", "modhtan_offset_kappa": "inf"}),
        ("modhtan", {"elu_alpha": "-1", "modhtan_offset_value": "0"}),
        ("modhtan", {"modhtan_k_o": "0.5", "rnf_n": "3.0", "W1": "1.0 2.0"}),
    ],
    ids=["htan-other-kinds-rows", "elu-modhtan-rows", "adaptive-modhtan-unread-rows", "unknown-keys"],
)
def test_rows_the_kind_does_not_read_are_ignored(name, extra):
    assert kind_from_fields({**DEFAULTS, "hidden_kind": name, **extra}) == KINDS[name]()
