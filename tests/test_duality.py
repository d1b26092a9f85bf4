"""The stable side as the forward system with c -> 1/c, and the duality
between the two sides (docs/duality.md)."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import RatMatrix, int_pair, minor_entry, rat, reversed_poly, system_with
from record_answer_reports import DATA
from solhom import cli, nfield, places
from solhom.cli import build_report
from solhom.engine import (
    GradedGroup,
    duality_check,
    finite_part_homology,
    principalization,
    shifted_homology,
)
from solhom.errors import InternalCheckError
from solhom.places import build_system

ROOT = Path(__file__).resolve().parents[1]

# perfbench/corpus.py REPORT_CORPUS, as in test_integer_tower.py
REPORT_CORPUS = (
    "x-3/2", "x^2-x+3/2", "x^2-x-1", "x^2+x+7/2",
    "x^2-x+5/6", "x^2-79/4", "x^3-x-1", "x^4-x-1",
)

# non-unit integral c of degree >= 3, refused with exit 2 while the dual
# was rebuilt from the minimal polynomial of 1/c in its own order
FORMERLY_REFUSED = (
    "x^3-2", "x^3+2", "x^3-5",
    "x^3-x-2", "x^3-x-7", "x^3+x+7", "x^3-x-11",
    "x^4-2", "x^4-x-3", "x^5-x-3",
)

# non-integral c of degree >= 3: the forward order itself is not maximal
STILL_REFUSED = {
    "x^3-3/2": "solhom: hypothesis violated: p = 2 divides the index of the working order Z[theta]\n",
    "x^3-x-1/3": "solhom: hypothesis violated: p = 3 divides the index of the working order Z[theta]\n",
}


def _sides(poly):
    sys_ = build_system(poly)
    dual = sys_.dual_system()
    unstable = shifted_homology(sys_, finite_part_homology(sys_))
    stable = shifted_homology(dual, finite_part_homology(dual))
    return sys_, unstable, stable


def _certified_answer_inputs():
    recorded = json.loads(DATA.read_text())
    return sorted(key.split()[0] for key, rec in recorded.items() if rec["exit"] == 0)


def test_dual_is_a_swap_in_the_same_field(monkeypatch):
    systems = [build_system(p) for p in REPORT_CORPUS + FORMERLY_REFUSED]
    checked = []
    original_check = places._check_transfer_index

    def refuse(*_args, **_kwargs):
        raise AssertionError("the dual rebuilt its field or its places")

    def counted_check(system):
        checked.append(system)
        original_check(system)

    monkeypatch.setattr(places, "build_system", refuse)
    monkeypatch.setattr(nfield.NumberField, "__init__", refuse)
    for name in ("element_valuations", "is_irreducible_over_q", "roots_in_unit_disk", "real_root_counts"):
        monkeypatch.setattr(places, name, refuse)
    monkeypatch.setattr(places, "_check_transfer_index", counted_check)
    for sys_ in systems:
        dual = sys_.dual_system()
        assert dual.field is sys_.field
        assert dual.c == sys_.c.inverse()
        assert dual.min_poly == reversed_poly(sys_.min_poly).monic()
        assert [(fp.prime, fp.valuation) for fp in dual.finite_stable] == [
            (fp.prime, -fp.valuation) for fp in sys_.finite_unstable
        ]
        assert [(fp.prime, fp.valuation) for fp in dual.finite_unstable] == [
            (fp.prime, -fp.valuation) for fp in sys_.finite_stable
        ]
        a, b = sys_.archimedean, dual.archimedean
        assert (b.contracting_real, b.contracting_real_negative, b.contracting_complex_pairs) == (
            a.expanding_real, a.expanding_real_negative, a.expanding_complex_pairs
        )
        assert (b.expanding_real, b.expanding_real_negative, b.expanding_complex_pairs) == (
            a.contracting_real, a.contracting_real_negative, a.contracting_complex_pairs
        )
        assert dual.degree_shift == sys_.field.degree - sys_.degree_shift
        # |N(c)| = N / N', and the two orientation signs multiply to sign N(c)
        norm = sys_.c.norm()
        assert abs(norm) == Fraction(sys_.transfer_index, dual.transfer_index)
        assert sys_.orientation_sign * dual.orientation_sign == (1 if norm > 0 else -1)
        assert sys_.dual_system() is dual
    assert len(checked) == len(systems)
    assert all(seen is s.dual_system() for seen, s in zip(checked, systems))


def test_each_prime_is_factored_once_per_report(monkeypatch):
    calls, fields = [], []
    factor = nfield.factor_rational_prime
    init = nfield.NumberField.__init__

    def counted_factor(field, p):
        calls.append((id(field), p))
        return factor(field, p)

    def counted_init(self, *args, **kwargs):
        fields.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nfield, "factor_rational_prime", counted_factor)
    monkeypatch.setattr(nfield.NumberField, "__init__", counted_init)
    systems = [build_system(p) for p in REPORT_CORPUS]
    for sys_ in systems:
        build_report(sys_, 6)
        assert sys_.dual_system().field is sys_.field
    # the parent of this layout factored 22 times on 16 fields
    assert len(fields) == 8
    assert len(calls) == len(set(calls)) == 11


def test_each_report_runs_the_duality_check(monkeypatch):
    seen = []
    check = cli.duality_check

    def counted(*args):
        seen.append(args[0].min_poly.pretty())
        return check(*args)

    monkeypatch.setattr(cli, "duality_check", counted)
    for poly in REPORT_CORPUS:
        build_report(build_system(poly), 2)
    assert len(seen) == len(REPORT_CORPUS)


@pytest.mark.parametrize("poly", ["x^2-x-1", "x^2-79/4", "x^4-x-1", "x+3/2", "x^3+2"])
def test_duality_check_fails_without_the_orientation_swap(poly):
    # each of these has N(c) < 0, so the two orientation signs differ
    sys_, unstable, stable = _sides(poly)
    dual = sys_.dual_system()
    assert sys_.orientation_sign != dual.orientation_sign
    duality_check(sys_, unstable, stable)
    unswapped = system_with(dual, orientation_sign=sys_.orientation_sign)
    stable = shifted_homology(unswapped, finite_part_homology(dual))
    with pytest.raises(InternalCheckError, match="Jacobi dual"):
        duality_check(sys_, unstable, stable)


def test_duality_check_fails_on_a_wrong_stable_scale():
    # keeping the valuation signs would put 1/N' where N' belongs
    sys_, unstable, stable = _sides("x-3/2")
    duality_check(sys_, unstable, stable)
    for degree, entry in stable.entries.items():
        scaled = GradedGroup(
            {
                **stable.entries,
                degree: entry._replace(
                    action=int_pair(RatMatrix([[x / 4 for x in row] for row in rat(entry.action).rows])),
                ),
            },
            stable.principalization,
        )
        with pytest.raises(InternalCheckError):
            duality_check(sys_, unstable, scaled)


def _complement_permutation(d, k):
    """P_k as a dict: (complement slot, k-subset slot) -> sign."""
    rows = {I: i for i, I in enumerate(combinations(range(d), d - k))}
    out = {}
    for j, I in enumerate(combinations(range(d), k)):
        rest = tuple(x for x in range(d) if x not in I)
        out[rows[rest], j] = (-1) ** sum(I)
    return out


def _wedge(rows, k):
    sets = list(combinations(range(len(rows)), k))
    if k == 0:
        return [[Fraction(1)]]
    return [[minor_entry(rows, r, c) for c in sets] for r in sets]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d
        )
    )
)
def test_jacobi_identity_with_the_complement_permutation(rows):
    """Lambda^(d-k)(M) = det(M) P_k Lambda^k(M^-1)^T P_k^-1, by cofactor
    minors, with P_k as docs/duality.md defines it."""
    M = RatMatrix(rows)
    det = M.det()
    assume(det != 0)
    inv = M.inverse().rows
    d = len(rows)
    for k in range(d + 1):
        big, small = _wedge(M.rows, d - k), _wedge(inv, k)
        perm = _complement_permutation(d, k)
        for (r, a), s in perm.items():
            for (c, b), t in perm.items():
                # P_k^-1 = P_k^T since P_k is a signed permutation
                assert big[r][c] == det * s * small[b][a] * t


@pytest.mark.parametrize("poly", list(dict.fromkeys(_certified_answer_inputs() + list(FORMERLY_REFUSED))))
def test_unstable_and_stable_closed_forms_agree(poly):
    """Unstable H_j against stable H_-j.  Observed on every certified
    input, not proven (docs/duality.md); where either side is
    signature-only the invariant signatures are compared."""
    _, unstable, stable = _sides(poly)
    assert sorted(-j for j in unstable.entries) == sorted(stable.entries)
    mixed = []
    for j, u in unstable.entries.items():
        s = stable.entries[-j]
        assert u.rank == s.rank, j
        if u.closed is not None and s.closed is not None:
            assert u.closed == s.closed, j
        else:
            assert u.colimit.signature().matches(s.colimit.signature()), j
            if (u.closed is None) != (s.closed is None):
                mixed.append(j)
    # these two have a closed form on one side and a signature on the other
    if poly in ("x^2-79/4", "x^2+40000003"):
        assert mixed


def _analyze(poly):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "solhom", "analyze", "--no-cache", "--json", "--min-poly", poly],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("poly", FORMERLY_REFUSED)
def test_formerly_refused_inputs_certify(poly):
    proc = _analyze(poly)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["hk"] == {"rank_identity": True, "verdicts": {"0": "equal", "1": "equal"}}
    assert report["lefschetz"]
    for row in report["lefschetz"]:
        assert abs(row["trace"]) == row["periodic_points"], row


@pytest.mark.parametrize("poly", sorted(STILL_REFUSED))
def test_non_integral_cubics_keep_their_refusal(poly):
    proc = _analyze(poly)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", STILL_REFUSED[poly])


def test_cube_root_of_two_matches_the_derivation_in_the_docs():
    text = (ROOT / "docs" / "duality.md").read_text()
    found = re.search(
        r"^\s*x\^3-2: N' = (\d+), N\(g\) = (\d+), tower = (\d+), stable H_0 = (\S+)$",
        text,
        re.MULTILINE,
    )
    assert found is not None
    n_dual, norm_g, tower, group = found.groups()
    sys_ = build_system("x^3-2")
    dual = sys_.dual_system()
    g, h = principalization(dual)
    assert dual.transfer_index == int(n_dual)
    assert (h, abs(g.norm())) == (1, int(norm_g))
    finite = finite_part_homology(dual)
    top = finite.entries[3].colimit.matrix
    assert top.nrows == 1 and abs(top.rows[0][0]) == int(tower)
    assert shifted_homology(dual, finite).entry(0).pretty() == group
    report = build_report(sys_, 6)
    assert report["homology"]["stable"]["0"]["group"] == group
