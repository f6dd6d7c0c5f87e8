"""Byte-for-byte golden files of ``spinforge schedule`` output.

Each case is one command line; its stdout is stored under
``tests/golden/schedule``. To record them again after an intended
change of output, run ``PYTHONPATH=src python tests/test_schedule_golden.py``.
"""

import contextlib
import io
import pathlib
import re
import sys

import pytest

from spinforge.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "schedule"

WHOLE_GATES = ("not", "cz", "cnot", "ccnot", "cccnot")

UNITS = {
    "natural": ("--natural-units",),
    "si": ("--b0", "0.37", "--omega", repr(1.76085963e11 * 0.37)),
}

SHARED = {
    "cz": ("--natural-units", "--j", "2", "--b-prime", "0.5"),
    "ccnot": ("--natural-units", "--j", "2", "--b-prime", "0.5"),
}


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {}
    for fmt in ("json", "csv"):
        for gate in WHOLE_GATES:
            for units, flags in UNITS.items():
                cases[f"derive-{units}-{gate}.{fmt}"] = (
                    "schedule", gate, *flags, f"--{fmt}"
                )
        for gate, flags in SHARED.items():
            cases[f"shared-{gate}.{fmt}"] = (
                "schedule", gate, "--mode", "shared-constants", *flags, f"--{fmt}"
            )
    return cases


CASES = _cases()


def _stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_output_matches_golden_file(name):
    code, out = _stdout_of(CASES[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CASES)
    assert all(re.fullmatch(r"[a-z-]+\.(json|csv)", name) for name in CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        code, out = _stdout_of(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN_DIR / name).write_bytes(out.encode("utf-8"))
