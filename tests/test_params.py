"""The activation flags: one flag per dataclass field, each sets exactly its
field, a kind ignores the flags of fields it does not own, a value out of its
field's range is a usage error with the dataclass's message, and the help
section that lists the flags is fixed."""

from dataclasses import fields, replace

import pytest

from modhtan.activations import KINDS, AdaptiveOffset, Elu, FixedOffset, Htan, ModHtan
from modhtan.bench import dump_curves
from modhtan.cli import _activation_from_flags, build_parser, main
from modhtan.rnf import RnfParams

# ModHtan.rnf is a nested group: its own fields have the flags
GROUP_FIELDS = {(ModHtan, "rnf")}

LEAF_FIELDS = [
    (cls, f.name)
    for cls in (Elu, ModHtan, FixedOffset, AdaptiveOffset, RnfParams)
    for f in fields(cls)
    if (cls, f.name) not in GROUP_FIELDS
]

# Per leaf field: flags that set it away from its default, and the default kind with that one change
MODHTAN = ModHtan()
CHANGED = {
    (Elu, "alpha"): (["--alpha", "3"], replace(Elu(), alpha=3.0)),
    (ModHtan, "offset_mode"): (["--offset-mode", "fixed", "--offset", "1.5"],
                               replace(MODHTAN, offset_mode=FixedOffset(1.5))),
    (FixedOffset, "offset_1"): (["--offset-mode", "fixed", "--offset", "3"],
                                replace(MODHTAN, offset_mode=FixedOffset(3.0))),
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
        ("htan", ["--alpha", "0", "--kappa", "0", "--rnf-a", "1"], Htan()),
        ("elu", ["--rnf-a", "1", "--kappa", "inf", "--offset-mode", "fixed"], Elu()),
        ("elu", ["--alpha", "2.5", "--delta", "-1", "--euler-mode", "direct"], Elu(2.5)),
        ("modhtan", ["--alpha", "-1"], ModHtan()),
        ("modhtan", ["--offset-mode", "fixed", "--offset", "-2", "--delta", "-1", "--kappa", "0", "--alpha", "0"],
         ModHtan(FixedOffset(-2.0))),
    ],
    ids=["htan-other-kinds-flags", "elu-modhtan-flags", "elu-own-flag", "adaptive-modhtan-elu-flag",
         "fixed-modhtan-adaptive-flags"],
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
        ("elu", ["--alpha", "0"], "alpha must be positive and finite, got 0.0"),
        ("modhtan", ["--delta", "-0.5"], "delta must be >= 0 and finite, got -0.5"),
        ("modhtan", ["--delta", "nan"], "delta must be >= 0 and finite, got nan"),
        ("modhtan", ["--kappa", "0"], "kappa must be positive and finite, got 0.0"),
        ("modhtan", ["--kappa", "inf"], "kappa must be positive and finite, got inf"),
        ("modhtan", ["--rnf-a", "1"], "calibration constant a must be >= 2 and at most the largest double, got 1"),
        ("modhtan", ["--rnf-a", "2"], "1 + x must stay strictly below a = 2"),
        ("modhtan", ["--offset-mode", "fixed", "--offset", "0"], "fixed offset_1 must be nonzero and finite, got 0.0"),
        ("modhtan", ["--offset-mode", "fixed", "--offset", "inf"],
         "fixed offset_1 must be nonzero and finite, got inf"),
        ("modhtan", ["--offset-mode", "fixed"], "missing --offset"),
    ],
    ids=["alpha-zero", "delta-negative", "delta-nan", "kappa-zero", "kappa-inf", "rnf-a-one", "rnf-a-two",
         "fixed-offset-zero", "fixed-offset-inf", "fixed-offset-missing"],
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
        (["--alpha", "x"], "argument --alpha: invalid float value: 'x'"),
        (["--offset-mode", "fixed", "--offset", "x"], "argument --offset: invalid float value: 'x'"),
        (["--delta", "big"], "argument --delta: invalid float value: 'big'"),
        (["--rnf-a", "1.5"], "argument --rnf-a: invalid int value: '1.5'"),
        (["--offset-mode", "sometimes"], "argument --offset-mode: invalid choice: 'sometimes'"),
        (["--euler-mode", "sometimes"], "argument --euler-mode: invalid choice: 'sometimes'"),
    ],
    ids=["alpha-text", "offset-text", "delta-text", "rnf-a-float", "offset-mode", "euler-mode"],
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
  --alpha ALPHA         elu scale (default 1.0)
  --offset-mode {adaptive,fixed}
                        modhtan offset_1 source (default adaptive)
  --offset OFFSET       offset_1 when --offset-mode fixed
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
