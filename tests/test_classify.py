"""Classification tables, cut-offs, coefficient windows, conjecture scan."""

import concurrent.futures

import pytest

from qbloch.classify import (Budget, ClassRecord, build_s_table,
                             build_shat_table, conjecture_scan, eden_class,
                             poch_class, s_cutoff, shat_bound, window_check,
                             window_detail, window_sweep)
from qbloch.errors import BudgetError, UsageError
from qbloch.pentagonal import p1
from qbloch.series import pochhammer

TABLE_S = {1: ((0, 1, 2, 3, 5), 69),
           2: ((4, 6, 7, 8, 9, 11), 116),
           3: ((10, 13, 14), 175),
           4: ((12, 15), 246),
           5: ((17,), 329)}

TABLE_SHAT_15 = {1: (1, 2), 2: (3, 4, 6), 3: (5, 8), 4: (7, 9), 5: (),
                 6: (10, 12), 7: (11, 14), 8: (13, 15)}


def test_poch_class_examples():
    assert poch_class(5).h == 1
    assert poch_class(0) == ClassRecord(kind='poch', index=0, h=1, witness=0,
                                        bound_used=0)
    assert poch_class(17).h == 5
    assert poch_class(4).h == 2
    rec = poch_class(41)
    assert rec.bound_used == 41 * 42 // 2


def test_cutoff_closed_form():
    for h in range(1, 10001):
        assert s_cutoff(h) == p1(2 * h + 5) - 1
    assert [s_cutoff(h) for h in (1, 2, 3)] == [69, 116, 175]
    with pytest.raises(UsageError):
        s_cutoff(0)


def test_shat_bound_closed_form():
    for k in range(1, 1001):
        assert shat_bound(k) == p1(k * (k - 1) // 2 + 1) - k
    assert shat_bound(5) == 171
    assert shat_bound(6) == 370
    assert shat_bound(15) == 16786


def test_s_table_reproduces_reference_rows():
    table = build_s_table(5)
    assert table.kind == "S"
    assert table.horizon == 329
    assert table.rows == TABLE_S
    assert table.members(3) == (10, 13, 14)
    assert table.members(99) == ()


def test_s_table_members_agree_with_poch_class():
    table = build_s_table(2)
    for h, (members, _cutoff) in table.rows.items():
        for m in members:
            assert poch_class(m).h == h
    flat = [m for members, _c in table.rows.values() for m in members]
    assert len(flat) == len(set(flat))


def test_s_table_worker_determinism():
    base = build_s_table(3)
    assert build_s_table(3, workers=2) == base
    assert build_s_table(3, workers=5) == base


def test_eden_class_examples():
    assert eden_class(1).h == 1
    assert eden_class(5).h == 3
    assert eden_class(10).h == 6
    assert eden_class(5).bound_used == 171


def test_shat_table_small_and_large():
    small = build_shat_table(6)
    assert small.kind == "Shat"
    got = {h: row[0] for h, row in small.rows.items()}
    assert got == {1: (1, 2), 2: (3, 4, 6), 3: (5,), 4: (), 5: (), 6: ()}
    assert all(row[1] == 6 for row in small.rows.values())

    single = build_shat_table(1)
    assert {h: row[0] for h, row in single.rows.items()} == {1: (1,)}

    full = build_shat_table(15, workers=3)
    got = {h: row[0] for h, row in full.rows.items()}
    for h, members in TABLE_SHAT_15.items():
        assert got[h] == members
    assert all(got[h] == () for h in range(9, 16))
    assert full == build_shat_table(15)


def test_small_window_facts_from_direct_expansion():
    # the hand-checked values below the window range
    assert pochhammer(1, 1, 6, 7).coeff(7) == 2
    for m in (7, 8, 9):
        assert pochhammer(1, 1, m, 12).coeff(12) == -2
    assert pochhammer(1, 1, 10, 15).coeff(15) == -2
    for m in range(11, 21):
        v = pochhammer(1, 1, m, 2 * m + 22).coeff(2 * m + 22)
        assert -3 <= v <= -2


def test_window_check_ranges():
    assert all(window_check(m) for m in range(22, 201))
    rec = window_detail(42)
    assert (rec.exponent, rec.value) == (51, 2)
    # the generic window genuinely fails at m=42, the special case is needed
    assert pochhammer(1, 1, 41, 153).coeff(153) == 1
    rec = window_detail(100)
    assert rec.exponent == 269 and 2 <= rec.value <= 6
    rec = window_detail(30)
    assert rec.exponent == 129 and 2 <= rec.value <= 12
    with pytest.raises(UsageError):
        window_check(21)


def test_budget_gates():
    tight = Budget(max_order=1000)
    with pytest.raises(BudgetError):
        poch_class(100, budget=tight)
    with pytest.raises(BudgetError):
        build_s_table(5, budget=tight)
    with pytest.raises(BudgetError):
        eden_class(10, budget=tight)
    with pytest.raises(BudgetError):
        window_detail(500, budget=Budget(max_order=100))
    assert poch_class(40, budget=tight).h == 196  # fits: bound 820 <= 1000


def test_conjecture_scan_h8():
    report = conjecture_scan(8)
    assert report.label == "EMPIRICAL"
    assert report.union == tuple(range(22))
    assert report.consecutive_union_above_5 is True
    assert report.singleton_above_16 is None  # vacuous below h=17
    assert any("no counterexample, no evidence" in note for note in report.notes)


def test_conjecture_scan_h1_vacuous():
    report = conjecture_scan(1)
    assert report.singleton_above_16 is None
    assert report.increasing_above_16 is None
    assert report.consecutive_union_above_5 is None
    assert report.union == (0, 1, 2, 3, 5)
    assert len(report.notes) == 2


def test_conjecture_scan_h5_union_has_gap():
    # S_1..S_5 leave out 16, which only shows up in S_6; no consecutiveness
    # is claimed at H=5, the clause starts at h>5
    report = conjecture_scan(5)
    assert 16 not in report.union
    assert report.consecutive_union_above_5 is None


def test_worker_argument_validation():
    with pytest.raises(UsageError):
        build_s_table(2, workers=0)
    with pytest.raises(UsageError):
        build_shat_table(3, workers=-1)


class RefusingPool:
    """Stands in for ProcessPoolExecutor and fails any attempt to start one."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def test_tables_never_start_a_process_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    base_s, base_shat = build_s_table(3), build_shat_table(6)
    for workers in (2, 10 ** 6):
        assert build_s_table(3, workers=workers) == base_s
        assert build_shat_table(6, workers=workers) == base_shat


def test_s_sweep_heights_and_witnesses_match_poch_class():
    # poch_class scans each whole polynomial, built independently by
    # pochhammer; the sweep settles non-members from a truncation
    for H in (1, 2, 3, 5, 8):
        table = build_s_table(H)
        member_of = {m: h for h, (members, _c) in table.rows.items() for m in members}
        for m in range(61):
            record = poch_class(m)
            assert (m in member_of) == (record.h <= H), (H, m)
            if m in member_of:
                assert member_of[m] == record.h, (H, m)
                assert table.certificates[m] == record.witness, (H, m)


def test_s_table_certificates_are_exact_witnesses():
    # each certificate's coefficient, recomputed by its own pochhammer call,
    # exceeds H for a non-member and is the member's height otherwise
    for H in range(1, 6):
        table = build_s_table(H)
        assert len(table.certificates) == table.horizon + 1
        member_of = {m: h for h, (members, _c) in table.rows.items() for m in members}
        for m, t in enumerate(table.certificates):
            value = abs(pochhammer(1, 1, m, t).coeff(t))
            if m in member_of:
                assert value == member_of[m], (H, m)
            else:
                assert value > H, (H, m)


def test_window_sweep_matches_direct_coefficients():
    records = window_sweep(22, 200)
    assert [r.m for r in records] == list(range(22, 201))
    for r in records:
        assert r.value == pochhammer(1, 1, r.m - 1, r.exponent).coeff(r.exponent), r.m
        assert r.ok == (r.lo <= r.value <= r.hi)
        assert window_detail(r.m) == r
    assert (records[42 - 22].exponent, records[42 - 22].value) == (51, 2)
