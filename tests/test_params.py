"""The activation flags: one flag per field of each dataclass the CLI builds,
each sets exactly its field, the kinds without fields ignore the flags, a value
out of its field's range is a usage error with the dataclass's message, and
the help section that lists the flags is fixed."""

from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest

from modhtan.activations import KINDS, AdaptiveOffset, Elu, FixedOffset, Htan, ModHtan, SoftStep
from modhtan.bench import dump_curves
from modhtan.cli import _activation_from_flags, build_parser, main
from modhtan.rnf import RnfParams

# ModHtan.rnf and ModHtan.offset_mode are nested groups: the fields of RnfParams, and of
# AdaptiveOffset, the offset_mode branch the CLI builds, have the flags
GROUP_FIELDS = {(ModHtan, "rnf"), (ModHtan, "offset_mode")}
# FixedOffset is the one class no flag builds: code freezes a trained offset_1 into it, and no
# run takes a constant offset from the command line
CODE_ONLY = FixedOffset

LEAF_FIELDS = [
    (cls, f.name)
    for cls in (*KINDS.values(), AdaptiveOffset, RnfParams)
    for f in fields(cls)
    if (cls, f.name) not in GROUP_FIELDS
]

# Per leaf field: flags that set it away from its default, and the default kind with that one change
MODHTAN = ModHtan()
CHANGED = {
    (AdaptiveOffset, "delta"): (["--delta", "3"], replace(MODHTAN, offset_mode=replace(AdaptiveOffset(), delta=3.0))),
    (AdaptiveOffset, "kappa"): (["--kappa", "3"], replace(MODHTAN, offset_mode=replace(AdaptiveOffset(), kappa=3.0))),
    (ModHtan, "euler_mode"): (["--euler-mode", "direct"], replace(MODHTAN, euler_mode="direct")),
    (RnfParams, "a"): (["--rnf-a", "3"], replace(MODHTAN, rnf=replace(RnfParams(), a=3))),
}

COMMANDS = {
    "curves": lambda name: ["curves", "--fn", name],
    "train": lambda name: ["train", "--fn", name],
    "bench": lambda name: ["bench", "--fns", name],
}

GRID = ["--lo", "-5", "--hi", "5", "--step", "0.5"]


def kind_of(argv, name):
    return _activation_from_flags(name, build_parser().parse_args(argv))


def field_id(key):
    owner, name = key
    return f"{owner.__name__}.{name}"


def test_every_leaf_field_has_a_flag():
    assert set(CHANGED) == set(LEAF_FIELDS)
    # the dataclasses a kind's fields may hold: the two with flags, and the code-only one
    held = {t for cls in KINDS.values() for hint in get_type_hints(cls).values()
            for t in get_args(hint) or (hint,) if is_dataclass(t)}
    assert held == {AdaptiveOffset, RnfParams, CODE_ONLY}


@pytest.mark.parametrize("key", list(CHANGED), ids=[field_id(k) for k in CHANGED])
def test_flag_sets_exactly_its_field(key):
    flags, kind = CHANGED[key]
    assert kind != KINDS[kind.name]()
    assert kind_of(["curves", "--fn", kind.name, *flags], kind.name) == kind


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", list(KINDS))
def test_no_flags_build_the_default_kind(name, command):
    assert kind_of(COMMANDS[command](name), name) == KINDS[name]()


@pytest.mark.parametrize(
    "name, flags, kind",
    [
        ("htan", ["--kappa", "0", "--rnf-a", "1"], Htan()),
        ("elu", ["--rnf-a", "1", "--kappa", "inf", "--delta", "-1", "--euler-mode", "direct"], Elu()),
        ("softstep", ["--delta", "nan", "--rnf-a", "2"], SoftStep()),
    ],
    ids=["htan", "elu", "softstep"],
)
def test_flags_the_kind_does_not_own_are_ignored(name, flags, kind, tmp_path, capsys):
    out, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert main(["curves", "--fn", name, *flags, *GRID, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    dump_curves(kind, -5.0, 5.0, 0.5, want)
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize(
    "name, flags, message",
    [
        ("modhtan", ["--delta", "-0.5"], "delta must be >= 0 and finite, got -0.5"),
        ("modhtan", ["--delta", "nan"], "delta must be >= 0 and finite, got nan"),
        ("modhtan", ["--delta", "inf"], "delta must be >= 0 and finite, got inf"),
        ("modhtan", ["--kappa", "0"], "kappa must be positive and finite, got 0.0"),
        ("modhtan", ["--kappa", "-1e-6"], "kappa must be positive and finite, got -1e-06"),
        ("modhtan", ["--kappa", "nan"], "kappa must be positive and finite, got nan"),
        ("modhtan", ["--kappa", "inf"], "kappa must be positive and finite, got inf"),
        ("modhtan", ["--rnf-a", "1"], "calibration constant a must be >= 2 and at most the largest double, got 1"),
        ("modhtan", ["--rnf-a", "2"], "1 + x must stay strictly below a = 2"),
    ],
    ids=["delta-negative", "delta-nan", "delta-inf", "kappa-zero", "kappa-negative", "kappa-nan", "kappa-inf",
         "rnf-a-one", "rnf-a-two"],
)
def test_flag_out_of_its_field_range_is_usage_error(name, flags, message, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [*COMMANDS[command](name), *flags]
    assert main([*argv, "--n", "20", "--epochs", "2"] if command != "curves" else argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta", "big"], "argument --delta: invalid float value: 'big'"),
        (["--kappa", "x"], "argument --kappa: invalid float value: 'x'"),
        (["--rnf-a", "1.5"], "argument --rnf-a: invalid int value: '1.5'"),
        (["--euler-mode", "sometimes"], "argument --euler-mode: invalid choice: 'sometimes'"),
    ],
    ids=["delta-text", "kappa-text", "rnf-a-float", "euler-mode"],
)
def test_unparsable_flag_is_argparse_usage_error(flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["curves", "--fn", "modhtan", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert list(tmp_path.iterdir()) == []


ACTIVATION_HELP = """\
activation parameters:
  --delta DELTA         adaptive offset headroom factor (default 0.05)
  --kappa KAPPA         adaptive offset floor (default 1e-06)
  --euler-mode {constant,direct}
                        tanh with slope ln E of the cached Euler constant, or
                        the rational formula per input (default constant)
  --rnf-a RNF_A         rational-power exponent a (default 10000000)
"""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_the_activation_flags(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert main([command, "--help"]) == 0
    sections = capsys.readouterr().out.split("\n\n")
    assert [s.rstrip("\n") + "\n" for s in sections if s.startswith("activation parameters:")] == [ACTIVATION_HELP]
