import itertools
import random
import time
from fractions import Fraction

import pytest

from braidrep import cli, lkb, matrix
from braidrep.braid import BraidWord, Permutation, refpairs
from braidrep.burau import burau_generator, burau_of_word
from braidrep.errors import InternalCheckError, ResourceGuardError
from braidrep.garside import random_half_permutation
from braidrep.laurent import MAX_EXPONENT, LaurentPoly
from braidrep.lkb import (
    WVector,
    apply_positive_word,
    basis_change_v_of_x,
    full_twist_scalar,
    is_trivial,
    length_omega,
    lkb_dim,
    lkb_generator,
    lkb_of_word,
    omega_ball_oracle,
    positive_action,
    w_class,
    words_equal,
)
from braidrep.matrix import RepMatrix, t_degree_range
from braidrep.verify import (
    random_positive_word,
    random_w_vector,
    random_word,
    rewritten_equivalent,
)

ONE = LaurentPoly.one()
Q = LaurentPoly.var_q()
T = LaurentPoly.var_t()


def test_generator_n2():
    assert lkb_generator(2, 1) == RepMatrix.from_rows([[T * Q**2]])
    assert lkb_generator(2, 1, -1) == RepMatrix.from_rows(
        [[LaurentPoly.monomial(1, -2, -1)]]
    )


def test_generator_n3_sigma1_columns():
    # basis order: x12, x13, x23
    g = lkb_generator(3, 1)
    # x12 -> t q^2 x12
    assert [g.entries[r][0] for r in range(3)] == [T * Q**2, LaurentPoly.zero(), LaurentPoly.zero()]
    # x13 -> t q (q-1) x12 + q x23
    assert g.entries[0][1] == T * Q * (Q - ONE)
    assert not g.entries[1][1]
    assert g.entries[2][1] == Q
    # x23 -> x13 + (1-q) x23
    assert not g.entries[0][2]
    assert g.entries[1][2] == ONE
    assert g.entries[2][2] == ONE - Q


def test_generator_n4_between_case():
    # sigma_2 on x14: between-strand case adds t q (q-1)^2 x23
    g = lkb_generator(4, 2)
    pairs = refpairs(4)
    col = pairs.index((1, 4))
    assert g.entries[col][col] == ONE
    assert g.entries[pairs.index((2, 3))][col] == T * Q * (Q - ONE) ** 2
    for r, pair in enumerate(pairs):
        if pair not in ((1, 4), (2, 3)):
            assert not g.entries[r][col]


def test_generator_bounds():
    with pytest.raises(ValueError):
        lkb_generator(4, 0)
    with pytest.raises(ValueError):
        lkb_generator(4, 4)
    with pytest.raises(ValueError, match="^sign must be \\+1 or -1$"):
        lkb_generator(4, 1, 0)


def test_braid_relations():
    for n in range(3, 8):
        for i in range(1, n - 1):
            assert lkb_of_word(BraidWord(n, (i, i + 1, i))) == lkb_of_word(
                BraidWord(n, (i + 1, i, i + 1))
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert lkb_of_word(BraidWord(n, (i, j))) == lkb_of_word(
                    BraidWord(n, (j, i))
                )


def test_word_inverses():
    rng = random.Random(51)
    for n in range(2, 7):
        assert lkb_of_word(BraidWord(n, (1, -1))).is_identity()
        for _ in range(15):
            w = random_word(n, 6, rng)
            assert (lkb_of_word(w) * lkb_of_word(w.inverse())).is_identity()


def test_basis_change():
    p, q = basis_change_v_of_x(2)
    assert p.is_identity() and q.is_identity()
    # v13 = x13 + (1-q) x23
    p3, _ = basis_change_v_of_x(3)
    pairs = refpairs(3)
    col = pairs.index((1, 3))
    assert p3.entries[pairs.index((1, 3))][col] == ONE
    assert p3.entries[pairs.index((2, 3))][col] == ONE - Q
    assert not p3.entries[pairs.index((1, 2))][col]
    for n in range(2, 7):
        p, q = basis_change_v_of_x(n)
        assert (p * q).is_identity()
        assert (q * p).is_identity()


def test_basis_change_conjugation_preserves_scalars():
    # the full twist is scalar, hence identical in both bases
    p, pinv = basis_change_v_of_x(3)
    m = lkb_of_word(BraidWord(3, (1, 2) * 3))
    assert pinv * m * p == m


def test_triviality():
    assert is_trivial(BraidWord(2, (1, -1)))
    assert not is_trivial(BraidWord(2, (1,)))
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    with pytest.raises(ValueError):
        words_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_certificate_keeps_equal_braids_equal():
    # rewriting by braid relations keeps the braid, so the mod-p pass must
    # never reject these pairs
    rng = random.Random(55)
    for n in range(3, 8):
        for _ in range(4):
            u = random_word(n, 10, rng)
            v = rewritten_equivalent(u, 8, rng)
            assert is_trivial(u * v.inverse())
            assert words_equal(u, v)


def test_certificate_agrees_with_exact_images():
    rng = random.Random(56)
    for _ in range(200):
        n = rng.randint(3, 7)
        u = random_word(n, 5, rng)
        v = rewritten_equivalent(u, 4, rng) if rng.random() < 0.3 else random_word(n, 5, rng)
        exact_u, exact_v = lkb_of_word(u), lkb_of_word(v)
        assert words_equal(u, v) == (exact_u == exact_v)
        assert is_trivial(u) == exact_u.is_identity()
        assert is_trivial(u * v.inverse()) == (exact_u == exact_v)


class ExactImageBuilt(Exception):
    pass


def test_certificate_answers_no_without_exact_images(monkeypatch):
    def refuse(word):
        raise ExactImageBuilt(word)

    monkeypatch.setattr(lkb, "lkb_of_word", refuse)
    # exponent sum 2, so nontrivial; the flip differs from it by sigma_3^2
    word = BraidWord(6, (1, -2, 3, 3, -4, 5, 2, -1))
    flipped = BraidWord(6, (1, -2, 3, -3, -4, 5, 2, -1))
    assert not is_trivial(word)
    assert not words_equal(word, flipped)
    # "yes" comes from the signed normal form, also without exact images
    assert is_trivial(BraidWord(2, (1, -1)))
    rng = random.Random(57)
    w = BraidWord(6, tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(40)))
    assert is_trivial(w * w.inverse())
    assert words_equal(w, rewritten_equivalent(w, 20, rng))


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DISAGREE = "internal check failed: LKB images and Garside normal forms disagree\n"


def test_garside_yes_against_mod_p_no_raises(monkeypatch, capsys):
    monkeypatch.setattr(lkb, "_signed_normal_form", lambda word: (0, ()))
    word = BraidWord(4, (1, 2, -3))
    with pytest.raises(InternalCheckError):
        is_trivial(word)
    with pytest.raises(InternalCheckError):
        words_equal(word, BraidWord(4, (1, 2, 3)))
    assert _cli(capsys, "trivial", "--n", "4", "--word", "1,2,-3") == (4, "", DISAGREE)
    assert _cli(capsys, "equal", "--n", "4", "--w1", "1,2,-3", "--w2", "1,2,3") == (4, "", DISAGREE)


def test_exact_yes_against_garside_no_raises(monkeypatch, capsys):
    counter = itertools.count(1)
    monkeypatch.setattr(lkb, "_signed_normal_form", lambda word: (next(counter), ()))
    with pytest.raises(InternalCheckError):
        is_trivial(BraidWord(3, (1, 2, -2, -1)))
    with pytest.raises(InternalCheckError):
        words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert _cli(capsys, "trivial", "--n", "3", "--word", "1,-1") == (4, "", DISAGREE)
    assert _cli(capsys, "equal", "--n", "3", "--w1", "1,2,1", "--w2", "2,1,2") == (4, "", DISAGREE)


def test_mod_p_collision_is_settled_by_exact_images(monkeypatch):
    # every word collides mod P; the normal forms differ, the exact images decide
    monkeypatch.setattr(lkb, "_image_mod_p", lambda word: lkb._start_vector(lkb_dim(word.n)))
    built = []
    real = lkb.lkb_of_word
    monkeypatch.setattr(lkb, "lkb_of_word", lambda word: built.append(word) or real(word))
    assert not is_trivial(BraidWord(3, (1, 2)))
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert len(built) == 4
    assert is_trivial(BraidWord(3, (1, -1)))
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert len(built) == 4


def test_exact_fallback_refuses_before_building(monkeypatch):
    # the guard runs before any exact image: a 3-letter word under a cap of 2
    # is refused without a call to lkb_of_word
    built = []
    monkeypatch.setattr(lkb, "_image_mod_p", lambda w: lkb._start_vector(lkb_dim(w.n)))
    monkeypatch.setattr(lkb, "lkb_of_word", built.append)
    monkeypatch.setenv("BRAIDREP_MAX_EXACT_LETTERS", "2")
    with pytest.raises(ResourceGuardError):
        is_trivial(BraidWord(3, (1, 2, 1)))
    with pytest.raises(ResourceGuardError):
        words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1, 2)))
    assert built == []


def test_exact_fallback_is_guarded(monkeypatch, capsys):
    # a collision mod P and normal forms that differ send every word to the
    # exact images; criterion 16's n = 9 word times its inverse is refused
    rng = random.Random(1016)
    word = BraidWord(9, tuple(rng.choice((1, -1)) * rng.randint(1, 8) for _ in range(400)))
    counter = itertools.count(1)
    monkeypatch.setattr(lkb, "_image_mod_p", lambda w: lkb._start_vector(lkb_dim(w.n)))
    monkeypatch.setattr(lkb, "_signed_normal_form", lambda w: (next(counter), ()))
    started = time.monotonic()
    code, out, err = _cli(capsys, "trivial", "--n", "9", f"--word={(word * word.inverse()).to_text()}")
    assert time.monotonic() - started < 1.0
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("resource guard: ")
    assert "BRAIDREP_MAX_EXACT_LETTERS" in err
    with pytest.raises(ResourceGuardError):
        words_equal(BraidWord(9, (1,)), word)
    # below the cap the exact images still answer
    assert not is_trivial(BraidWord(3, (1, 2)))
    monkeypatch.setenv("BRAIDREP_MAX_EXACT_LETTERS", "2")
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    with pytest.raises(ResourceGuardError):
        is_trivial(BraidWord(3, (1, 2, 1)))
    with pytest.raises(ResourceGuardError):
        words_equal(BraidWord(3, (1,)), BraidWord(3, (2, 1, 2)))


@pytest.mark.parametrize(
    "command", (["length-omega"], ["matrix", "--rep", "lkb"], ["matrix", "--rep", "burau"])
)
def test_exact_image_commands_are_guarded(monkeypatch, capsys, command):
    # the cap counts the letters as given, also those of a word whose normal
    # form is empty: (s1 s2 s1) (s2 s1 s2)^-1 is trivial
    for word in (BraidWord(3, (1, 2) * 50 + (1,)), BraidWord(3, (1, 2, 1, -2, -1, -2) * 17)):
        argv = command + ["--n", "3", f"--word={word.to_text()}"]
        rep = "Burau" if "burau" in command else "LKB"
        monkeypatch.delenv("BRAIDREP_MAX_EXACT_LETTERS", raising=False)
        started = time.monotonic()
        code, out, err = _cli(capsys, *argv)
        assert time.monotonic() - started < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"resource guard: exact {rep} image of a {len(word)}-letter word exceeds 100 letters"
            " (set BRAIDREP_MAX_EXACT_LETTERS to raise)\n"
        )
        monkeypatch.setenv("BRAIDREP_MAX_EXACT_LETTERS", str(len(word)))
        code, out, err = _cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        if command == ["length-omega"]:
            assert out == f"{length_omega(word)}\n"


def test_length_omega_guard(monkeypatch):
    monkeypatch.setenv("BRAIDREP_MAX_EXACT_LETTERS", "3")
    assert length_omega(BraidWord(3, (1, 2, 1))) == 1
    with pytest.raises(ResourceGuardError):
        length_omega(BraidWord(3, (1, 2, 1, 2)))
    # one strand needs no image
    assert length_omega(BraidWord(1)) == 0


def _literal_length(word: BraidWord) -> int:
    lo, hi = t_degree_range(lkb_of_word(word))
    return max(hi - lo, hi, -lo)


def test_length_omega_matches_the_literal_image():
    # length_omega answers 0 with no product when the normal form is empty;
    # the span of the word's own image must give the same length
    rng = random.Random(63)
    for n in range(2, 8):
        for _ in range(6):
            u = random_word(n, 10, rng)
            trivial = u * rewritten_equivalent(u, 6, rng).inverse()
            near = trivial * BraidWord(n, (rng.choice((1, -1)) * rng.randint(1, n - 1),))
            assert (length_omega(trivial), length_omega(near)) == (0, 1), (n, near.letters)
            for w in (random_word(n, 12, rng), trivial, near):
                assert length_omega(w) == _literal_length(w), (n, w.letters)


def test_length_omega_of_a_trivial_word_multiplies_nothing(monkeypatch):
    word = BraidWord.from_text(5, "1,-2,3,-4,2,2,-1,3,4,-3,2,1,-1,-2,1,3,-4,-3,-2,4,-2,-3,2,-1")
    assert len(word) == 24 and lkb_of_word(word).is_identity()  # tables cached here
    products = []
    monkeypatch.setattr(matrix, "_times", lambda *args: products.append(args))
    assert length_omega(word) == 0
    assert products == []


def _long_word(n: int, length: int, rng: random.Random) -> BraidWord:
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def test_image_mod_p_matches_exact_image():
    rng = random.Random(58)
    words = [random_word(n, 8, rng) for n in range(2, 8) for _ in range(8)]
    # Products along these images have coefficients beyond 10^6, so a ring
    # kernel that goes wrong only on large integers fails here.
    rng = random.Random(60)
    words += [_long_word(n, length, rng) for n, length in ((4, 60), (4, 80), (5, 60), (5, 80))]
    for w in words:
        start = lkb._start_vector(lkb_dim(w.n))
        rows = [[lkb._mod_p(e) for e in row] for row in lkb_of_word(w).entries]
        expected = tuple(sum(x * y for x, y in zip(row, start)) % lkb._P for row in rows)
        assert lkb._image_mod_p(w) == expected, (w.n, w.letters)


def test_generator_tables_mod_p_are_inverse():
    p = lkb._P
    for n in range(2, 10):
        d = lkb_dim(n)
        for k in range(1, n):
            dense = {}
            for sign in (1, -1):
                m = [[int(r == c) for c in range(d)] for r in range(d)]
                for r, row in lkb._generator_mod_p(n, k, sign):
                    m[r] = [0] * d
                    for c, x in row:
                        assert 0 < x < p
                        m[r][c] = x
                dense[sign] = m
            a, b = dense[1], dense[-1]
            for r in range(d):
                for c in range(d):
                    assert sum(a[r][j] * b[j][c] for j in range(d)) % p == int(r == c)


def test_length_omega_small():
    assert length_omega(BraidWord(2)) == 0
    assert length_omega(BraidWord(2, (1,))) == 1
    assert length_omega(BraidWord(2, (-1,))) == 1
    assert length_omega(BraidWord(2, (1, 1))) == 2
    # any simple has length 1, including the half twist
    for n in (2, 3, 4):
        delta = Permutation.longest(n).reduced_word()
        assert length_omega(delta) == 1
        assert length_omega(delta.inverse()) == 1


def test_t_degree_range_of_generators():
    assert t_degree_range(lkb_generator(2, 1)) == (1, 1)
    assert t_degree_range(lkb_generator(2, 1, -1)) == (-1, -1)


def test_omega_ball_b2():
    ball = omega_ball_oracle(2, 1)
    by_depth = sorted((d, w.letters) for d, w in ball.values())
    assert by_depth == [(0, ()), (1, (-1,)), (1, (1,))]


def test_omega_ball_matches_formula_b3():
    ball = omega_ball_oracle(3, 2)
    for depth, word in ball.values():
        assert length_omega(word) == depth
        if depth == 0:
            assert is_trivial(word)


def test_omega_ball_guards():
    with pytest.raises(ResourceGuardError):
        omega_ball_oracle(5, 1)
    with pytest.raises(ResourceGuardError):
        omega_ball_oracle(3, 4)
    for n in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            omega_ball_oracle(n, -1)


def test_length_omega_one_strand():
    assert length_omega(BraidWord(1)) == 0


def test_image_is_multiplicative():
    rng = random.Random(54)
    for n in (3, 4, 5):
        for _ in range(6):
            u, v = random_word(n, 8, rng), random_word(n, 8, rng)
            assert lkb_of_word(u * v) == lkb_of_word(u) * lkb_of_word(v)


def _naive_product(x: RepMatrix, y: RepMatrix) -> RepMatrix:
    """x * y with each entry a sum of LaurentPoly products, on the dense entries."""
    zero = LaurentPoly.zero()
    return RepMatrix(
        tuple(
            tuple(sum((a * y.entries[s][c] for s, a in enumerate(row) if a), zero)
                  for c in range(y.dim))
            for row in x.entries
        )
    )


def test_image_is_the_left_fold_of_generator_products():
    # the word images run matrix._product right to left on sparse rows,
    # reusing unit rows; a dense left fold, independent of it, must agree
    rng = random.Random(26)
    for n in range(2, 7):
        for length in (0, 1, 2, 7, 16):
            word = random_word(n, length, rng)
            for image, generator, dim in (
                (lkb_of_word, lkb_generator, lkb_dim(n)),
                (burau_of_word, burau_generator, n),
            ):
                fold = RepMatrix.identity(dim)
                for e in word.letters:
                    fold = _naive_product(fold, generator(n, abs(e), 1 if e > 0 else -1))
                assert image(word) == fold, (n, word.letters)


@pytest.mark.parametrize(
    "command, n, word",
    [
        # sigma_2 of B_3 raises the q-exponent by up to 3 per letter
        (["length-omega"], 3, "2," * 5462),
        # judged as given: its normal form is empty
        (["length-omega"], 3, "2," * 5462 + "-2," * 5462),
        (["matrix", "--rep", "lkb"], 3, "2," * 5462),
        # sigma_1 raises the t-exponent of the Burau image by 1 per letter
        (["matrix", "--rep", "burau"], 2, "1," * (MAX_EXPONENT + 1)),
    ],
    ids=["length-omega", "length-omega-trivial", "matrix-lkb", "matrix-burau"],
)
def test_word_image_out_of_the_exponent_range_is_refused(monkeypatch, capsys, command, n, word):
    for k in range(1, n):  # inverse tables are built with _times: build them first
        lkb_generator(n, k, -1)
        burau_generator(n, k, -1)
    products = []
    monkeypatch.setattr(matrix, "_times", lambda *args: products.append(args))
    monkeypatch.setenv("BRAIDREP_MAX_EXACT_LETTERS", "100000")
    started = time.monotonic()
    code, out, err = _cli(capsys, *command, "--n", str(n), f"--word={word[:-1]}")
    assert time.monotonic() - started < 1.0
    assert (code, out, products) == (3, "", [])
    assert err.startswith("resource guard: exponent ") and err.count("\n") == 1


def test_omega_ball_env_cap(monkeypatch):
    monkeypatch.setenv("BRAIDREP_MAX_BALL", "5")
    with pytest.raises(ResourceGuardError):
        omega_ball_oracle(3, 2)


def test_full_twist():
    for n in (2, 3, 4):
        assert full_twist_scalar(n) == LaurentPoly.monomial(1, 2 * n, 2)
    with pytest.raises(ValueError):
        full_twist_scalar(1)


def test_positivity_of_positive_words():
    rng = random.Random(52)
    points = (Fraction(1, 2), Fraction(1, 3))
    for n in (3, 4, 5):
        for _ in range(40):
            w = random_positive_word(n, 8, rng)
            for row in lkb_of_word(w).entries:
                for e in row:
                    const = e.t_constant_term()
                    for p in points:
                        assert const.evaluate(p, Fraction(1)) >= 0


def test_w_class_basis_vectors():
    n = 3
    pairs = refpairs(n)
    for idx, pair in enumerate(pairs):
        coords = [{} for _ in pairs]
        coords[idx] = {0: Fraction(1)}
        v = WVector.from_maps(n, coords)
        assert w_class(v) == frozenset(pairs) - {pair}
    zero = WVector.from_maps(n, [{} for _ in pairs])
    assert w_class(zero) == frozenset(pairs)


def test_w_class_rejects_negative_constant():
    n = 3
    coords = [{0: Fraction(-1)}, {}, {}]
    with pytest.raises(ValueError):
        w_class(WVector.from_maps(n, coords))
    with pytest.raises(ValueError):
        WVector.from_maps(n, [{-1: Fraction(1)}, {}, {}])


def test_w_class_tracks_positive_action():
    rng = random.Random(53)
    for _ in range(150):
        a = random_half_permutation(4, rng)
        v = random_w_vector(4, a, rng)
        assert w_class(v) == a
        x = random_positive_word(4, 6, rng)
        assert w_class(apply_positive_word(x, v)) == positive_action(x, a)
    with pytest.raises(ValueError):
        apply_positive_word(BraidWord(4, (-1,)), random_w_vector(4, frozenset(), rng))


def test_apply_positive_word_checks_the_strand_count():
    rng = random.Random(55)
    for word, m in ((BraidWord(4, (3,)), 3), (BraidWord(3, (1,)), 4)):
        with pytest.raises(ValueError, match=f"strand count mismatch: {word.n} vs {m}"):
            apply_positive_word(word, random_w_vector(m, frozenset(), rng))


def test_apply_positive_word_matches_the_exact_image():
    # the sparse generator rows against the dense image, q evaluated at 1/2
    rng = random.Random(56)
    half = Fraction(1, 2)
    for _ in range(200):
        n = rng.randint(3, 5)
        v = random_w_vector(n, random_half_permutation(n, rng), rng)
        x = random_positive_word(n, 6, rng)
        got = apply_positive_word(x, v, half)
        for idx, row in enumerate(lkb_of_word(x).entries):
            want: dict[int, Fraction] = {}
            for entry, coord in zip(row, v.coords):
                for t, a in entry.evaluate_first(half).items():
                    for s, b in coord:
                        want[t + s] = want.get(t + s, 0) + a * b
            assert got.coords[idx] == tuple(sorted((e, c) for e, c in want.items() if c)), (x, idx)


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("BRAIDREP_MAX_EXACT_LETTERS", "abc", ["length-omega", "--n", "3", "--word", "1,2"]),
        ("BRAIDREP_MAX_BALL", "1e3", ["growth", "--n", "3", "--radius", "1"]),
    ],
)
def test_a_bad_setting_is_named(monkeypatch, capsys, name, value, argv):
    monkeypatch.setenv(name, value)
    assert _cli(capsys, *argv) == (2, "", f"error: {name} must be an integer, got {value!r}\n")


def test_lkb_dim():
    assert [lkb_dim(n) for n in (2, 3, 4, 7)] == [1, 3, 6, 21]
