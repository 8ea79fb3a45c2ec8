import json
import random

import pytest

from braidrep import cli
from braidrep.cli import main
from braidrep.matrix import RepMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trivial_exit_codes(capsys):
    code, out, _ = run(capsys, "trivial", "--n", "2", "--word", "1,-1")
    assert code == 0 and out.strip() == "trivial (LKB)"
    code, out, _ = run(capsys, "trivial", "--n", "2", "--word", "1")
    assert code == 1 and out.strip() == "nontrivial (LKB)"


def test_kernel_word_via_cli(capsys):
    word = "1,1,-2,-5,-5,4,-3,-4,5,5,2,-1,-1,-1,2,5,-4,-3,4,-5,-2,1,1,1,-2,-5,-5,4,3,-4,5,5,2,-1,-1,-1,2,5,-4,3,4,-5,-2,1"
    code, out, _ = run(capsys, "trivial", "--n", "6", "--word", word)
    assert code == 1 and "nontrivial (LKB)" in out
    # the same word has trivial Burau image: visible via the matrix command
    code, out, _ = run(capsys, "matrix", "--rep", "burau", "--n", "6", "--word", word, "--format", "json")
    assert code == 0
    assert RepMatrix.from_json_obj(json.loads(out)).is_identity()


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "--n", "3", "--w1", "1,2,1", "--w2", "2,1,2")
    assert code == 0 and out.strip() == "equal (LKB)"
    code, out, _ = run(capsys, "equal", "--n", "3", "--w1", "1", "--w2", "2")
    assert code == 1 and out.strip() == "not equal (LKB)"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "trivial", "--n", "3", "--word", "1,x")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "trivial", "--n", "3", "--word", "7")
    assert code == 2
    code, _, err = run(capsys, "normal-form", "--n", "3", "--word", "-1")
    assert code == 2
    code, _, err = run(capsys, "growth", "--n", "3", "--radius", "-1")
    assert code == 2 and "radius" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unexpected_error_exits_5(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_trivial", crash)
    code, out, err = run(capsys, "trivial", "--n", "3", "--word", "1")
    assert code == 5 and out == ""
    assert err == "unexpected error: RuntimeError: boom\n"


def test_resource_guards(capsys):
    code, _, err = run(capsys, "growth", "--n", "5", "--radius", "1")
    assert code == 3 and "resource guard" in err
    code, _, err = run(capsys, "growth", "--n", "3", "--radius", "4")
    assert code == 3
    code, _, err = run(capsys, "trivial", "--n", "12", "--word", "1")
    assert code == 3
    code, _, err = run(capsys, "verify", "--suite", "all", "--n", "9")
    assert code == 3


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "matrix", "--rep", "lkb", "--n", "3", "--word", "1,2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 3
    assert obj["order"] == "lex-refpair"
    assert all(len(item) == 3 for item in obj["entries"])
    from braidrep.braid import BraidWord
    from braidrep.lkb import lkb_of_word

    assert RepMatrix.from_json_obj(obj) == lkb_of_word(BraidWord(3, (1, 2)))


def test_matrix_pretty(capsys):
    code, out, _ = run(capsys, "matrix", "--rep", "burau", "--n", "2", "--word", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "1 - t" in lines[0]


def test_normal_form_output(capsys):
    code, out, _ = run(capsys, "normal-form", "--n", "3", "--word", "1,2,1,1")
    assert code == 0
    assert out.splitlines() == ["1,2,1", "1"]
    code, out, _ = run(capsys, "normal-form", "--n", "3", "--word", "")
    assert code == 0 and out.strip() == "identity"


def test_length_omega_output(capsys):
    code, out, _ = run(capsys, "length-omega", "--n", "3", "--word", "1,2,1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "length-omega", "--n", "1", "--word", "")
    assert code == 0 and out.strip() == "0"


def test_growth_census(capsys):
    code, out, _ = run(capsys, "growth", "--n", "3", "--radius", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert lines[1] == "1 10"
    assert len(lines) == 3


def test_bratteli(capsys):
    code, out, _ = run(capsys, "bratteli", "--n", "6", "--diagram", "1,1,1,1")
    assert code == 0 and out.strip() == "15"
    code, out, _ = run(capsys, "bratteli", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["- 1", "2 1", "1,1 1"]
    code, _, err = run(capsys, "bratteli", "--n", "3", "--diagram", "2")
    assert code == 2  # inadmissible diagram at that level


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "full-twist", "--n", "3")
    assert code == 0
    assert "PASS: full twist acts by q^6 t^2" in out
    assert out.strip().endswith("1/1 checks passed")


def test_verify_bmw(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bmw", "--n", "3")
    assert code == 0
    assert "E2*S1^+1*E2" in out


def test_verify_all_n4(capsys):
    # the combined suite at n=4 is the CLI's own desk-scale contract
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "4")
    assert code == 0
    assert "FAIL" not in out


def _fuzz_word(rng, n: int) -> str:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(("1,x", "1,,2", " ", "+", "1.5"))
    top = max(n, 1)
    letters = [rng.randint(-top, top) for _ in range(rng.randint(0, 7))]
    if roll < 0.85:
        letters = [e for e in letters if e and abs(e) < n] or letters
    return rng.choice((",", " ")).join(map(str, letters))


def _fuzz_argv(rng) -> list[str]:
    command = rng.choice(
        ("matrix", "trivial", "equal", "normal-form", "length-omega", "growth", "bratteli",
         "verify")
    )
    n = rng.randint(-1, 7)
    if command == "matrix":
        return [command, "--rep", rng.choice(("burau", "lkb")), "--n", str(n),
                "--word=" + _fuzz_word(rng, n), "--format", rng.choice(("pretty", "json"))]
    if command == "equal":
        return [command, "--n", str(n), "--w1=" + _fuzz_word(rng, n), "--w2=" + _fuzz_word(rng, n)]
    if command == "growth":
        # n=4 at radius 3 is within the guard but takes over ten seconds
        n, radius = rng.choice(
            [(m, r) for m in range(-1, 6) for r in range(-2, 4) if (m, r) != (4, 3)]
        )
        return [command, "--n", str(n), "--radius", str(radius)]
    if command == "bratteli":
        argv = [command, "--n", str(rng.choice((-1, 0, 1, 2, 3, 5, 8, 41)))]
        if rng.random() < 0.5:
            rows = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
            argv += ["--diagram", ",".join(map(str, sorted(rows, reverse=True))) or "-"]
        return argv
    if command == "verify":
        # the sampling suites take seconds each; their own tests run them
        suite = rng.choice(("relations", "full-twist", "bmw"))
        return [command, "--suite", suite, "--n", str(n)]
    return [command, "--n", str(n), "--word=" + _fuzz_word(rng, n)]


# argv that crashed with an uncaught exception before radius was validated
_FORMER_CRASHES = [
    ["growth", "--n", str(n), "--radius", str(r)] for n in (1, 2, 3, 4) for r in (-1, -2)
]


def test_cli_argv_fuzz(capsys):
    rng = random.Random(2024)
    argvs = _FORMER_CRASHES + [_fuzz_argv(rng) for _ in range(300)]
    for argv in argvs:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), argv


_BAD_VALUES = ("x", "", " ", "2.5", "1e3", "0x3", "-", "--", "nope")
_CAPS = ("BRAIDREP_MAX_EXACT_LETTERS", "BRAIDREP_MAX_BALL")
_CAP_VALUES = ("x", "1.5", " ", "ten", "0", "5", "2**10")


def _malformed(rng, argv: list[str]) -> list[str]:
    """argv with one value replaced by garbage, one option dropped, or an
    unknown option added."""
    argv = list(argv)
    roll = rng.random()
    if roll < 0.5:
        k = rng.randrange(1, len(argv))
        if "=" in argv[k]:
            argv[k] = argv[k].split("=")[0] + "=" + rng.choice(_BAD_VALUES)
        elif argv[k].startswith("--") and k + 1 < len(argv):
            argv[k + 1] = rng.choice(_BAD_VALUES)
        else:
            argv[k] = rng.choice(_BAD_VALUES)
    elif roll < 0.7:
        del argv[rng.randrange(1, len(argv))]
    elif roll < 0.8:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    return argv


def test_random_argv_never_crashes(capsys, monkeypatch):
    rng = random.Random(2121)
    for _ in range(300):
        argv = _fuzz_argv(rng)
        if rng.random() < 0.6:
            argv = _malformed(rng, argv)
        for name in _CAPS:
            if rng.random() < 0.25:
                monkeypatch.setenv(name, rng.choice(_CAP_VALUES))
            else:
                monkeypatch.delenv(name, raising=False)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
