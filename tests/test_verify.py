import random

from braidrep.lkb import words_equal
from braidrep.verify import random_word, rewritten_equivalent


def test_rewritten_signed_word_is_the_same_braid():
    rng = random.Random(17)
    for n in (3, 4, 5):
        for _ in range(20):
            w = random_word(n, 8, rng)
            assert words_equal(w, rewritten_equivalent(w, 6, rng))
