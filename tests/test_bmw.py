import functools

import pytest

from braidrep.bmw import (
    YoungDiagram,
    bmw_relation_check,
    bratteli_dim,
    bratteli_neighbors,
    level_diagrams,
    sum_sq_dimensions,
)
from braidrep.errors import ResourceGuardError


@functools.lru_cache(maxsize=None)
def count_paths_by_enumeration(n: int, diagram: YoungDiagram) -> int:
    """Independent oracle: the number of downward paths, summed over the
    level n-1 neighbors (memoized depth-first enumeration)."""
    if n == 1:
        return 1
    return sum(
        count_paths_by_enumeration(n - 1, mu) for mu in bratteli_neighbors(diagram, n)
    )


def double_factorial(n: int) -> int:
    """(2n-1)!! by direct product."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def test_young_diagram_validation():
    YoungDiagram((3, 3, 1))
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert YoungDiagram.empty().size == 0
    assert YoungDiagram.column(4).rows == (1, 1, 1, 1)
    assert YoungDiagram.hook(5).rows == (2, 1, 1, 1)
    assert YoungDiagram.hook(2).rows == (2,)


def test_diagram_text():
    assert YoungDiagram((2, 1)).to_text() == "2,1"
    assert YoungDiagram.empty().to_text() == "-"
    assert YoungDiagram.from_text("2,1") == YoungDiagram((2, 1))
    assert YoungDiagram.from_text("-") == YoungDiagram.empty()
    assert YoungDiagram.from_text("") == YoungDiagram.empty()
    with pytest.raises(ValueError):
        YoungDiagram.from_text("2,x")


def test_level_diagrams():
    assert level_diagrams(1) == [YoungDiagram((1,))]
    assert level_diagrams(2) == [
        YoungDiagram.empty(),
        YoungDiagram((2,)),
        YoungDiagram((1, 1)),
    ]
    assert level_diagrams(3) == [
        YoungDiagram((1,)),
        YoungDiagram((3,)),
        YoungDiagram((2, 1)),
        YoungDiagram((1, 1, 1)),
    ]
    for n in range(1, 10):
        for d in level_diagrams(n):
            assert d.size <= n and d.size % 2 == n % 2


def test_bratteli_neighbors_examples():
    # the column with n-2 boxes at level n meets exactly three diagrams
    for n in (4, 5, 6, 7):
        neighbors = set(bratteli_neighbors(YoungDiagram.column(n - 2), n))
        assert neighbors == {
            YoungDiagram.column(n - 3),
            YoungDiagram.column(n - 1),
            YoungDiagram.hook(n - 1),
        }
    # the full column admits no addition: only one neighbor
    for n in (2, 3, 4, 5):
        assert bratteli_neighbors(YoungDiagram.column(n), n) == [
            YoungDiagram.column(n - 1)
        ]
    assert bratteli_neighbors(YoungDiagram.empty(), 2) == [YoungDiagram((1,))]
    with pytest.raises(ValueError):
        bratteli_neighbors(YoungDiagram((3,)), 2)  # too many boxes
    with pytest.raises(ValueError):
        bratteli_neighbors(YoungDiagram((1,)), 2)  # parity


def test_closed_form_dimensions():
    for n in range(1, 13):
        assert bratteli_dim(n, YoungDiagram.column(n)) == 1
        assert bratteli_dim(n, YoungDiagram.row(n)) == 1  # the other 1-dim module
    for n in range(2, 13):
        assert bratteli_dim(n, YoungDiagram.hook(n)) == n - 1
        assert bratteli_dim(n, YoungDiagram.column(n - 2)) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        bratteli_dim(3, YoungDiagram((2,)))


def test_dimension_against_path_enumeration():
    for n in range(1, 21):
        for d in level_diagrams(n):
            assert bratteli_dim(n, d) == count_paths_by_enumeration(n, d)


def test_sum_of_squares_is_double_factorial():
    assert sum_sq_dimensions(2) == 3
    assert sum_sq_dimensions(3) == 15
    assert sum_sq_dimensions(4) == 105
    for n in range(1, 11):
        assert sum_sq_dimensions(n) == double_factorial(n)


def test_lkb_dimension_match():
    # the column diagram with n-2 boxes carries a module of the LKB dimension
    from braidrep.lkb import lkb_dim

    for n in range(2, 13):
        assert bratteli_dim(n, YoungDiagram.column(n - 2)) == lkb_dim(n)


def test_substituted_generators_satisfy_braid_relations():
    # the substitution is a ring homomorphism, so the scaled matrices still
    # satisfy the braid relations
    from braidrep.bmw import _substituted_generator

    for n in (3, 4):
        s = {i: _substituted_generator(n, i, 1) for i in range(1, n)}
        for i in range(1, n - 1):
            assert s[i] * s[i + 1] * s[i] == s[i + 1] * s[i] * s[i + 1]
        for i in range(1, n):
            for j in range(i + 2, n):
                assert s[i] * s[j] == s[j] * s[i]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bmw_relations(n):
    report = bmw_relation_check(n)
    assert report.passed
    assert all(c.holds for c in report.checks)  # mirrors hold too
    required = [c for c in report.checks if c.required]
    # one quadratic-type relation per generator plus two sandwich relations per i >= 2
    assert len(required) == (n - 1) + 2 * (n - 2)
    # required checks first, each sandwich as +1 then -1; mirrors last
    sandwich = "E{i}*S{j}^{s}*E{i} == {tag}*(a+a^-1)*E{i}"
    expected = [f"E{i}*S{i} == l^-1*E{i}" for i in range(1, n)]
    neighbours = [(i, i - 1, "") for i in range(2, n)] + [(i, i + 1, " [mirror]") for i in range(1, n - 1)]
    for i, j, suffix in neighbours:
        for s, tag in (("+1", "l"), ("-1", "l^-1")):
            expected.append(sandwich.format(i=i, j=j, s=s, tag=tag) + suffix)
    assert [c.name for c in report.checks] == expected
    assert [c.required for c in report.checks] == [not c.name.endswith("[mirror]") for c in report.checks]


def test_bmw_relation_guard():
    with pytest.raises(ResourceGuardError):
        bmw_relation_check(7)
    with pytest.raises(ResourceGuardError):
        bmw_relation_check(1)


def test_bmw_relations_n6():
    assert bmw_relation_check(6).passed
