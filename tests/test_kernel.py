"""The Bareiss kernel's four entry points against the cofactor and rank oracles.

`fraction_free_det`, `solve_unique`, `echelonize` and `bottom_row_minors`
share one fraction-free elimination.  The inputs here lean on the cases it
has to get right beyond generic matrices: zero columns (a skipped pivot
column), repeated and dependent rows (rank deficiency), leading zero blocks
(row swaps), and Hankel windows of {0, +-1} sequences, the singular matrices
the determinant problem is made of.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit.core import bottom_row_minors, echelonize, fraction_free_det, solve_unique

from oracles import cofactor_det, oracle_rank

entries = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.sampled_from([F(0), F(0), F(1), F(-1)]),
)
signs = st.sampled_from([F(0), F(1), F(-1)])


@st.composite
def planted(draw, n_rows: int, n_cols: int) -> list[list[F]]:
    """A random matrix with one planted degeneracy, or none."""
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    kind = draw(st.sampled_from(["generic", "zero_column", "repeated_row", "dependent_row", "zero_block"]))
    if kind == "zero_column":
        col = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[col] = F(0)
    elif kind == "repeated_row" and n_rows > 1:
        src, dst = draw(st.permutations(range(n_rows)))[:2]
        rows[dst] = list(rows[src])
    elif kind == "dependent_row" and n_rows > 2:
        a, b, dst = draw(st.permutations(range(n_rows)))[:3]
        c = draw(entries)
        rows[dst] = [x + c * y for x, y in zip(rows[a], rows[b])]
    elif kind == "zero_block":
        k = draw(st.integers(1, min(n_rows, n_cols)))
        for i in range(k):
            for j in range(k):
                rows[i][j] = F(0)
    return rows


@st.composite
def hankel_window(draw, n_rows: int, n_cols: int) -> list[list[F]]:
    """(s_{i+j}) for a {0, +-1} sequence, often with a leading zero run."""
    zeros = draw(st.integers(0, n_rows + n_cols - 1))
    s = [F(0)] * zeros + draw(st.lists(signs, min_size=n_rows + n_cols, max_size=n_rows + n_cols))
    return [[s[i + j] for j in range(n_cols)] for i in range(n_rows)]


def matrices(n_rows: int, n_cols: int):
    return st.one_of(planted(n_rows, n_cols), hankel_window(n_rows, n_cols))


square = st.integers(1, 6).flatmap(lambda n: matrices(n, n))
rectangular = st.tuples(st.integers(1, 6), st.integers(1, 7)).flatmap(lambda shape: matrices(*shape))
wide = st.integers(1, 5).flatmap(lambda n: matrices(n, n + 1))


@settings(max_examples=200, deadline=None)
@given(square)
def test_det_matches_cofactor(rows):
    assert fraction_free_det(rows) == cofactor_det(rows)


@settings(max_examples=200, deadline=None)
@given(wide)
def test_solve_matches_cramer(augmented):
    """Solve [A | b]: Cramer's rule on cofactor determinants, or ValueError when A is singular."""
    rows = [row[:-1] for row in augmented]
    rhs = [row[-1] for row in augmented]
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(ValueError):
            solve_unique(rows, rhs)
        return
    cramer = [
        cofactor_det([row[:j] + [b] + row[j + 1 :] for row, b in zip(rows, rhs)]) / det
        for j in range(len(rows))
    ]
    assert solve_unique(rows, rhs) == cramer


@settings(max_examples=200, deadline=None)
@given(rectangular)
def test_echelonize_pivot_count_is_rank(rows):
    _, _, pivot_cols = echelonize(rows)
    assert len(pivot_cols) == oracle_rank(rows)
    assert pivot_cols == sorted(set(pivot_cols))


@settings(max_examples=200, deadline=None)
@given(wide)
def test_bottom_row_minors_match_cofactor(rows):
    minors = [cofactor_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(len(rows) + 1)]
    assert bottom_row_minors(rows) == minors
