"""Golden pulse programs: the exact segments every name's build replays.

For each of the 20 names ``build`` takes, the programs ``programs_of``
gives are pinned in natural units and in SI at b0 = 0.37 T: each segment
as (sites, axes, angle.hex(), duration label), with the program's label,
size and ``total_time.hex()``. They are stored in
``tests/golden/programs.json``. To record them again after an intended
change of the pulse layer, run ``PYTHONPATH=src python tests/test_program_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from spinforge.config import GAMMA_ELECTRON, PhysicalConfig
from spinforge.gates import GATE_REGISTRY, GateSpec, parse_gate_name
from spinforge.timing import COMPONENT_PARENT_GATE, gate_timing_table
from test_gates import COMPONENT_NAMES, exact, programs_of

GOLDEN_FILE = pathlib.Path(__file__).parent / "golden" / "programs.json"

UNITS = {
    "natural": PhysicalConfig.natural_units(),
    "si-0.37T": PhysicalConfig(b0=0.37, omega=GAMMA_ELECTRON * 0.37),
}

CASES = [f"{name} {units}" for name in (*GATE_REGISTRY, *COMPONENT_NAMES) for units in UNITS]


def _programs(case: str) -> list:
    """The case's programs as ``exact`` gives them, in JSON's lists."""
    name, units = case.split()
    parsed = parse_gate_name(name)
    if isinstance(parsed, GateSpec):
        table = COMPONENT_PARENT_GATE[parsed.n]
    else:
        table = GATE_REGISTRY[parsed][0]
    schedule = gate_timing_table(table, UNITS[units])
    return json.loads(json.dumps([exact(p) for p in programs_of(name, schedule)]))


def _dumps(golden: dict) -> str:
    """The golden map as JSON, one program to a line."""
    entries = []
    for case, programs in golden.items():
        rows = ",\n".join(f"  {json.dumps(p)}" for p in programs)
        entries.append(f"{json.dumps(case)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(entries) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_every_name_and_unit_is_pinned(golden):
    assert len(CASES) == 40
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_programs_match_golden(golden, case):
    assert _programs(case) == golden[case]


if __name__ == "__main__":
    text = _dumps({case: _programs(case) for case in CASES})
    if json.loads(text) != {case: _programs(case) for case in CASES}:
        sys.exit("golden programs do not survive a JSON round trip")
    GOLDEN_FILE.write_text(text, encoding="utf-8")
