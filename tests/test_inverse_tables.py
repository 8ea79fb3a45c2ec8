"""Inverse generator tables in closed form, with ``mat_inverse`` as the oracle.

The LKB inverse comes from the cubic relation (s - 1)(s + q)(s - t q^2) = 0
and the Burau inverse from the Hecke relation; neither may reach the
elimination routine.
"""

import random

import pytest

from braidrep import burau, cli, lkb, matrix
from braidrep.braid import BraidWord
from braidrep.burau import burau_generator
from braidrep.errors import InternalCheckError
from braidrep.garside import _signed_normal_form
from braidrep.laurent import LaurentPoly
from braidrep.lkb import is_trivial, length_omega, lkb_generator, words_equal
from braidrep.matrix import mat_inverse
from braidrep.verify import random_word, rewritten_equivalent, run_suite

TABLE_CACHES = (lkb.lkb_generator, burau.burau_generator, lkb._generator_mod_p)


@pytest.fixture
def cold_tables():
    for cache in TABLE_CACHES:
        cache.cache_clear()
    yield
    for cache in TABLE_CACHES:
        cache.cache_clear()


def test_lkb_inverse_tables_equal_mat_inverse():
    for n in range(2, 10):
        for k in range(1, n):
            assert lkb_generator(n, k, -1) == mat_inverse(lkb_generator(n, k, 1)), (n, k)


def test_burau_inverse_tables_equal_mat_inverse():
    for n in range(2, 10):
        for i in range(1, n):
            assert burau_generator(n, i, -1) == mat_inverse(burau_generator(n, i, 1)), (n, i)


def _rows_mod_p(m) -> tuple:
    # the sparse-row layout of lkb._generator_mod_p, evaluated from a given matrix
    rows = []
    for r, row in enumerate(m.entries):
        values = tuple((c, x) for c, e in enumerate(row) if e and (x := lkb._mod_p(e)))
        if values != ((r, 1),):
            rows.append((r, values))
    return tuple(rows)


def test_generator_tables_mod_p_match_the_oracle():
    for n in range(2, 10):
        for k in range(1, n):
            positive = lkb_generator(n, k, 1)
            assert lkb._generator_mod_p(n, k, 1) == _rows_mod_p(positive)
            assert lkb._generator_mod_p(n, k, -1) == _rows_mod_p(mat_inverse(positive))


class EliminationReached(Exception):
    pass


def test_no_elimination_on_the_generator_path(monkeypatch, cold_tables):
    def refuse(*args):
        raise EliminationReached

    monkeypatch.setattr(matrix, "_eliminate", refuse)
    with pytest.raises(EliminationReached):
        mat_inverse(burau_generator(3, 1))
    rng = random.Random(91)
    for _ in range(4):
        w = random_word(9, 16, rng)
        p, factors = _signed_normal_form(w)
        k = len(factors)
        assert is_trivial(w) == ((p, factors) == (0, ()))
        assert is_trivial(w * w.inverse())
        assert words_equal(w, rewritten_equivalent(w, 10, rng))
        assert not words_equal(w, w * BraidWord(9, (rng.randint(1, 8),)))
        assert length_omega(w) == max(k, p + k, -p)
    for k in range(1, 9):
        assert (lkb_generator(9, k) * lkb_generator(9, k, -1)).is_identity()
        assert (burau_generator(9, k) * burau_generator(9, k, -1)).is_identity()


BROKEN_LKB = "internal check failed: LKB inverse table fails sigma * sigma^-1 = I\n"


def test_corrupted_lkb_relation_raises(monkeypatch, capsys, cold_tables):
    u, a, b = lkb._INVERSE_RELATION
    monkeypatch.setattr(lkb, "_INVERSE_RELATION", (u, a + LaurentPoly.var_q(), b))
    with pytest.raises(InternalCheckError):
        lkb_generator(4, 2, -1)
    assert cli.main(["trivial", "--n", "4", "--word", "1,-2,3"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", BROKEN_LKB)


def test_corrupted_generator_column_raises(monkeypatch, cold_tables):
    # a wrong last column of sigma_2 in B4 breaks the cubic relation there
    real = lkb._generator_column

    def corrupted(n, k, i, j):
        terms = real(n, k, i, j)
        return [(2 * c, target) for c, target in terms] if (i, j) == (n - 1, n) else terms

    monkeypatch.setattr(lkb, "_generator_column", corrupted)
    with pytest.raises(InternalCheckError):
        lkb_generator(4, 2, -1)


def test_corrupted_hecke_relation_raises(monkeypatch, cold_tables):
    u, v = burau._HECKE_INVERSE
    monkeypatch.setattr(burau, "_HECKE_INVERSE", (-u, v))
    with pytest.raises(InternalCheckError):
        burau_generator(3, 1, -1)


def test_one_cache_entry_per_burau_table(cold_tables):
    # three generators of B4 and their inverses, for each representation
    run_suite("relations", 4)
    assert burau_generator.cache_info().currsize == 6
    assert lkb_generator.cache_info().currsize == 6


def test_one_cache_entry_per_lkb_table_in_the_ref_and_w_actions(cold_tables):
    # the Ref action (garside suite), the W action (lkb-positivity suite) and
    # the word images read the same six tables of B4
    lkb._t_constant_support.cache_clear()
    run_suite("garside", 4)
    run_suite("lkb-positivity", 4)
    assert lkb_generator.cache_info().currsize == 6


def _lookups(cache) -> int:
    info = cache.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize(
    "image, cache", [(lkb.lkb_of_word, lkb_generator), (burau.burau_of_word, burau_generator)]
)
def test_word_images_read_one_generator_table_per_letter(image, cache, cold_tables):
    # each letter is one lookup in the one table cache; a cold inverse also
    # looks up its generator, so the signed word runs on built tables
    rng = random.Random(92)
    positive = BraidWord(5, tuple(rng.randint(1, 4) for _ in range(12)))
    signed = random_word(5, 30, rng)
    before = _lookups(cache)
    image(positive)
    assert _lookups(cache) - before == len(positive)
    for k in range(1, 5):
        cache(5, k, -1)
    before = _lookups(cache)
    image(signed)
    assert _lookups(cache) - before == len(signed)
