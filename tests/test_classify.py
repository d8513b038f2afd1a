"""Classification tables, cut-offs, coefficient windows, conjecture scan."""

import concurrent.futures
import os

import pytest

from qbloch.classify import (Budget, ClassRecord, build_s_table,
                             build_shat_table, conjecture_scan, eden_class,
                             poch_class, s_cutoff, shat_bound, window_check,
                             window_detail)
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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs every
    submitted call in this process, so no test forks."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    base_s, base_shat = build_s_table(3), build_shat_table(6)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    RecordingPool.sizes = []
    assert build_s_table(3, workers=10 ** 6) == base_s
    assert build_shat_table(6, workers=10 ** 6) == base_shat
    assert RecordingPool.sizes == [3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_s_table(3, workers=10 ** 6) == base_s
    assert build_shat_table(6, workers=10 ** 6) == base_shat
    assert RecordingPool.sizes == [3, 3]  # one CPU: no pool at all


def test_s_sweep_heights_and_witnesses_match_poch_class():
    # the sweep reads each (q;q)_m's first half only; poch_class scans the
    # whole polynomial, built independently by pochhammer
    from qbloch.classify import _scan_poch_range
    for lo, hi in ((0, 45), (30, 60)):
        for m, h, witness in _scan_poch_range(lo, hi):
            record = poch_class(m)
            assert (h, witness) == (record.h, record.witness), m
