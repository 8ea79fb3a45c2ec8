import itertools
import random

import pytest

from braidrep import lkb, verify
from braidrep.cli import main
from braidrep.laurent import LaurentPoly
from braidrep.lkb import lkb_dim, words_equal
from braidrep.matrix import RepMatrix
from braidrep.verify import SUITES, random_word, rewritten_equivalent, run_suite, suite_burau_kernel


def test_rewritten_signed_word_is_the_same_braid():
    rng = random.Random(17)
    for n in (3, 4, 5):
        for _ in range(20):
            w = random_word(n, 8, rng)
            assert words_equal(w, rewritten_equivalent(w, 6, rng))


def test_kernel_check_builds_no_exact_image(monkeypatch):
    def refuse(word):
        raise AssertionError("exact LKB image built")

    monkeypatch.setattr(verify, "lkb_of_word", refuse)
    monkeypatch.setattr(lkb, "lkb_of_word", refuse)
    results = suite_burau_kernel()
    assert [r.name for r in results] == [
        "kernel word has 44 letters",
        "burau image is the identity",
        "lkb image is not the identity",
        "t=1 specialization matches the permutation image",
    ]
    assert all(r.ok for r in results)


_RANGES = {
    "relations": (2, 8, "relations suite supports"),
    "garside": (3, 6, "garside suite supports"),
    "lkb-positivity": (3, 6, "lkb-positivity suite supports"),
    "full-twist": (2, 6, "full-twist suite supports"),
    "bmw": (2, 6, "BMW relation check supported for"),
    "all": (3, 5, "the combined suite supports"),
}


@pytest.mark.parametrize("suite", sorted(_RANGES))
def test_suite_range_guards(capsys, suite):
    low, high, message = _RANGES[suite]
    for n in (low - 1, high + 1):
        code = main(["verify", "--suite", suite, "--n", str(n)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"resource guard: {message} {low} <= n <= {high}, got {n}\n"


def test_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        run_suite("nope", 3)


@pytest.mark.parametrize(
    "n, counts",
    [
        (3, [10, 4, 9, 3, 1, 6]),
        (4, [18, 4, 9, 3, 1, 11]),
        (5, [28, 4, 8, 3, 1, 16]),
    ],
)
def test_combined_suite_order(n, counts):
    assert SUITES == (
        "relations", "burau-kernel", "garside", "lkb-positivity", "full-twist", "bmw", "all"
    )
    results = run_suite("all", n)
    blocks = [
        (prefix, len(list(group)))
        for prefix, group in itertools.groupby(r.name.split(": ")[0] for r in results)
    ]
    assert blocks == list(zip(SUITES[:-1], counts))
    assert all(r.ok for r in results)


@pytest.mark.parametrize(
    "suite, failed",
    [
        (
            "garside",
            [
                "normal-form equality matches LKB equality",
                "positive fraction w == x y^-1 verified by LKB",
            ],
        ),
        ("lkb-positivity", ["positive-word entries have nonnegative t-constant terms"]),
    ],
)
def test_failed_checks_exit_4(monkeypatch, capsys, suite, failed):
    # -2 I is no braid image: every pair of words gets it, it squares to 4 I,
    # and its t-constant term is negative
    minus_two = LaurentPoly.monomial(-2, 0, 0)
    monkeypatch.setattr(
        verify, "lkb_of_word", lambda word: RepMatrix.scalar(lkb_dim(word.n), minus_two)
    )
    code = main(["verify", "--suite", suite, "--n", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert [line[len("FAIL: "):] for line in lines if line.startswith("FAIL: ")] == failed
    checks = len(lines) - 1
    assert lines[-1] == f"{checks - len(failed)}/{checks} checks passed"
    assert checks > len(failed)
