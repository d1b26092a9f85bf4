"""Lefschetz rows from Newton power sums against the matrix-power loop
they replaced (tests/oracles.py), the characteristic polynomial they
start from read off the dual's minimal polynomial against
Faddeev-LeVerrier, periodic counts without per-period objects, and every
reported count against the resultant of the input polynomial alone."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    cyclic_resultant_count,
    lefschetz_rows_by_matrix_powers,
    primitive_integer_coeffs,
    system_with,
)
from record_answer_reports import DATA, HIGH_DEGREE_DATA, answer_inputs
from solhom import engine, nfield
from solhom.cli import build_report
from solhom.engine import lefschetz_rows, lefschetz_traces
from solhom.errors import DegenerateFix, InternalCheckError, SolhomError
from solhom.linalg import IntMatrix, char_poly
from solhom.places import build_system
from solhom.qpoly import Poly, parse_poly


def rows_of_matrix(A, m, N, n):
    """lefschetz_rows on the Faddeev-LeVerrier characteristic polynomial
    of A."""
    return lefschetz_rows(char_poly(A), m, N, n)


def _outcome(route, *args):
    try:
        return route(*args)
    except (DegenerateFix, InternalCheckError) as exc:
        return type(exc).__name__, str(exc)


def _root_of_unity_blocks(m: int) -> list[list[list[int]]]:
    """Blocks whose eigenvalues are m times a root of unity: m, -m, and
    the companions of x^2 + m^2, x^2 + m x + m^2 and x^2 - m x + m^2
    (orders 4, 3 and 6), so some power A^k has the eigenvalue m^k."""
    m2 = m * m
    return [[[m]], [[-m]], [[0, -m2], [1, 0]], [[0, -m2], [1, -m]], [[0, -m2], [1, m]]]


@st.composite
def matrices(draw):
    """(A, m, N, n): an integer d x d matrix A, d <= 5, often with an
    eigenvalue m times a root of unity, conjugated by a unimodular
    matrix, and N sometimes a multiple of m^d so that every row is an
    integer."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    a = [[draw(entries) for _ in range(d)] for _ in range(d)]
    block = draw(st.sampled_from(_root_of_unity_blocks(m)))
    if len(block) <= d and draw(st.booleans()):
        # block upper-triangular: the block's eigenvalues are A's too
        for i, row in enumerate(block):
            a[i][: len(block)] = row
        for i in range(len(block), d):
            a[i][: len(block)] = [0] * len(block)
    for _ in range(draw(st.integers(0, 4))):
        # conjugate by I + c E_ij: add c times row j to row i, then take
        # c times column i from column j
        i, j, c = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(st.integers(-2, 2))
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in a:
                row[j] -= c * row[i]
    N = draw(st.integers(1, 6)) * (m**d if draw(st.booleans()) else 1)
    return IntMatrix(a), m, N, draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rows_and_refusals_match_matrix_powers(case):
    assert _outcome(rows_of_matrix, *case) == _outcome(lefschetz_rows_by_matrix_powers, *case)


def test_eigenvalue_m_to_the_k_is_a_degenerate_fix():
    # A has the eigenvalue 2 * i, so A^4 has the eigenvalue 2^4
    A = IntMatrix([[0, -4, 1], [1, 0, 5], [0, 0, 3]])
    with pytest.raises(DegenerateFix, match=r"c\^4 = 1"):
        rows_of_matrix(A, 2, 8, 6)
    assert rows_of_matrix(A, 2, 8, 3) == lefschetz_rows_by_matrix_powers(A, 2, 8, 3)


@pytest.mark.parametrize("poly, n", [("x^2+x+7/2", 41), ("x^3-x-1", 50), ("x^9-x-1", 6)])
def test_report_rows_match_matrix_powers(poly, n):
    sys_ = build_system(poly)
    A, m = sys_.c_inverse.mult_pair()
    expected = lefschetz_rows_by_matrix_powers(A, m, sys_.transfer_index, n)
    assert lefschetz_traces(sys_, n) == expected
    assert sys_.periodic_counts(n) == [abs(row) for row in expected]


def faddeev_leverrier_rows(sys_, n):
    """The rows from the Faddeev-LeVerrier characteristic polynomial of
    m_{1/c}'s integer matrix, the route a report took before it read the
    polynomial off the dual's min_poly."""
    A, m = sys_.c_inverse.mult_pair()
    return rows_of_matrix(A, m, sys_.transfer_index, n)


def _characteristic_polys(monkeypatch, sys_, n):
    """The polynomial lefschetz_traces hands to lefschetz_rows, with the
    rows."""
    seen = []

    def recorded(coeffs, *rest):
        seen.append(tuple(coeffs))
        return lefschetz_rows(coeffs, *rest)

    monkeypatch.setattr(engine, "lefschetz_rows", recorded)
    rows = _outcome(lefschetz_traces, sys_, n)
    monkeypatch.undo()
    return seen, rows


def test_answer_input_rows_match_faddeev_leverrier(monkeypatch):
    checked = 0
    for poly in sorted({poly for _, poly, _ in answer_inputs()}):
        try:
            sys_ = build_system(poly)
        except SolhomError:
            continue  # refused inputs have no rows
        seen, rows = _characteristic_polys(monkeypatch, sys_, 12)
        assert seen == [char_poly(sys_.c_inverse.mult_pair()[0])], poly
        assert rows == _outcome(faddeev_leverrier_rows, sys_, 12), poly
        checked += 1
    assert checked >= 20


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d), st.lists(st.integers(1, 6), min_size=d, max_size=d)
        )
    )
)
def test_drawn_rows_match_faddeev_leverrier(case):
    nums, dens = case
    try:
        sys_ = build_system(Poly([1, *(Fraction(a, b) for a, b in zip(nums, dens))]))
    except SolhomError:
        assume(False)  # reducible, c = 0, or a root on the unit circle
    assert _outcome(lefschetz_traces, sys_, 8) == _outcome(faddeev_leverrier_rows, sys_, 8)


def test_a_min_poly_that_is_not_that_of_c_is_caught():
    # the dual's min_poly x^2 - x/2 - 1 is not m_{1/c}'s: with m = 1 its
    # coefficient -1/2 is not an integer
    sys_ = build_system("x^2-x-1")
    fake = system_with(sys_, min_poly=Poly([1, Fraction(1, 2), -1]))
    with pytest.raises(InternalCheckError, match="non-integral char_poly"):
        lefschetz_traces(fake, 3)


def test_rows_take_no_matrix_products_or_determinants(monkeypatch):
    systems = [build_system(p) for p in ("x^2+x+7/2", "x^3-x-1", "x^2-79/4", "x-3/2")]

    def refuse(*_args):
        raise AssertionError("a matrix product or determinant on the Lefschetz path")

    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    monkeypatch.setattr(IntMatrix, "det", refuse)
    for sys_ in systems:
        sys_.c_inverse  # computed once per system, outside the rows
        assert len(lefschetz_traces(sys_, 12)) == 12


def test_periodic_counts_create_no_objects_per_period(monkeypatch):
    created = []
    element_init, trusted = nfield.NfElement.__init__, IntMatrix._trusted.__func__

    def counted_element(self, *args, **kwargs):
        created.append("NfElement")
        element_init(self, *args, **kwargs)

    def counted_matrix(cls, rows):
        created.append("IntMatrix")
        return trusted(cls, rows)

    monkeypatch.setattr(nfield.NfElement, "__init__", counted_element)
    monkeypatch.setattr(IntMatrix, "_trusted", classmethod(counted_matrix))
    for poly in ("x^2+x+7/2", "x^3-x-1", "x^2-79/4", "x-3/2", "x^3-2"):
        sys_ = build_system(poly)
        created.clear()
        counts = sys_.periodic_counts(12)
        assert created == [] and len(counts) == 12, (poly, created)


def count_problems(poly: str, report: dict) -> list[str]:
    """The rows of the report of c whose count is not |Res(F, x^n - 1)|,
    F the primitive integer polynomial of the input: solhom only parses
    F (docs/lefschetz.md, "Counts from the input polynomial")."""
    F = primitive_integer_coeffs(parse_poly(poly))
    problems = []
    for row in report["lefschetz"]:
        want = cyclic_resultant_count(F, row["n"])
        if row["periodic_points"] != want:
            problems.append(f"{poly}, period {row['n']}: {row['periodic_points']}, not {want}")
    return problems


def _recorded_reports() -> list[tuple[str, dict]]:
    """(input polynomial, report) for every recorded report that certifies."""
    out = []
    for path in (DATA, HIGH_DEGREE_DATA):
        for key, record in sorted(json.loads(path.read_text()).items()):
            if record["exit"] == 0:
                out.append((key.split(" --lefschetz ")[0], json.loads(record["stdout"])))
    return out


def test_recorded_counts_are_resultants_of_the_input_polynomial():
    reports = _recorded_reports()
    assert len(reports) >= 40
    for poly, report in reports:
        assert count_problems(poly, report) == []


def test_a_raised_count_fails_the_resultant_check():
    for poly, report in _recorded_reports():
        copied = json.loads(json.dumps(report))
        copied["lefschetz"][-1]["periodic_points"] += 1
        assert len(count_problems(poly, copied)) == 1, poly


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-7, 7), min_size=d, max_size=d), st.lists(st.integers(1, 6), min_size=d, max_size=d)
        )
    )
)
def test_drawn_counts_are_resultants_of_the_input_polynomial(case):
    nums, dens = case
    poly = Poly([1, *(Fraction(a, b) for a, b in zip(nums, dens))]).pretty()
    try:
        report = build_report(build_system(poly), 8)
    except SolhomError:
        assume(False)  # reducible, c = 0, a root on the unit circle, or refused
    assert count_problems(poly, report) == []
