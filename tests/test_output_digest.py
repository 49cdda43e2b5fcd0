"""scripts/output_digest.py: one digest line per output family, the same on every run."""

import re
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
FAMILIES = ["activate", "activate_fixed", "train_lm", "train_lm_fixed", "train_gdm", "bench", "curves"]


def test_one_stable_line_per_family(capsys):
    outputs = []
    for _ in range(2):
        runpy.run_path(str(SCRIPT), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == FAMILIES
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
    assert outputs[1] == outputs[0]
