"""Byte-for-byte CLI output on fixed words.

Each file in tests/golden holds the exact stdout of one command; the file name
encodes the command, the representation, the strand count and the format.
Round trips cannot see a change of term order or sign rendering; these can.
"""

from pathlib import Path

import pytest

from braidrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
WORDS = {2: "-1,-1,-1", 4: "1,-2,3", 5: "1,-2,3,-4,2,2,-1,3"}
# u * v^-1 with v a rewrite of u: the identity braid, though free reduction
# leaves 20 letters; one more letter makes a braid of length 1
TRIVIAL_N5 = "1,-2,3,-4,2,2,-1,3,4,-3,2,1,-1,-2,1,3,-4,-3,-2,4,-2,-3,2,-1"

CASES = {}
for n, word in WORDS.items():
    args = ["--n", str(n), f"--word={word}"]
    CASES[f"length_omega_n{n}"] = ["length-omega", *args]
    for rep in ("lkb", "burau"):
        for fmt in ("json", "pretty"):
            CASES[f"matrix_{rep}_n{n}_{fmt}"] = ["matrix", "--rep", rep, *args, "--format", fmt]
for name, word in (("trivial", TRIVIAL_N5), ("near_trivial", TRIVIAL_N5 + ",2")):
    CASES[f"length_omega_n5_{name}"] = ["length-omega", "--n", "5", f"--word={word}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
