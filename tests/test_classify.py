"""Classification tables, cut-offs, coefficient windows, conjecture scan."""

import concurrent.futures
import random

import pytest

from qbloch import classify, fseries, series
from qbloch.classify import (Budget, ClassRecord, build_s_table,
                             build_shat_table, conjecture_scan, eden_class,
                             poch_class, s_cutoff, shat_bound, window_check,
                             window_detail, window_sweep)
from qbloch.cli import main
from qbloch.closed_form import first_appearance
from qbloch.errors import BudgetError, UsageError
from qbloch.pentagonal import p1
from qbloch.series import _carried_products, _tail_coeff, _tails, pochhammer

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


def test_cutoff_is_the_first_appearance_of_h_plus_3():
    # the S lemma: past s_cutoff(h), magnitude h+3 of (q^3;q)_inf sits at an
    # index below s = m+1, where it lifts a coefficient of (q;q)_m above h
    for h in list(range(1, 3001)) + [10 ** 40, 10 ** 100]:
        assert s_cutoff(h) == first_appearance(h + 3), h


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


def test_s_table_worker_determinism(capsys):
    # the table takes no worker count; --workers on the CLI must not move it
    base = build_s_table(3)
    assert build_s_table(3) == base
    expected = [f"{h}\t{','.join(map(str, members))}\t{bound}"
                for h, (members, bound) in sorted(base.rows.items())]
    for workers in ("1", "2", "5"):
        assert main(["table", "S", "3", "--workers", workers]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line for line in captured.out.splitlines()
                if not line.startswith("#")]
        assert rows == expected


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

    full = build_shat_table(15)
    got = {h: row[0] for h, row in full.rows.items()}
    for h, members in TABLE_SHAT_15.items():
        assert got[h] == members
    assert all(got[h] == () for h in range(9, 16))


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


def test_s_table_gate_is_the_order_it_expands(monkeypatch, capsys):
    # the sweep expands the tails to 7(s_cutoff(H) + 1) - 1: 245258 at
    # H = 74, the largest the default budget admits, and 251719 at H = 75,
    # refused before any tail is built
    class Built(Exception):
        pass

    def refuse(*_args):
        raise Built

    monkeypatch.setattr(classify, "_tails", refuse)
    with pytest.raises(Built):
        build_s_table(74)
    assert main(["table", "S", "75"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: build_s_table(75) needs "
                                   "expansion order 251719 > budget 250000")
    assert len(captured.err.splitlines()) == 1


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


def test_conjecture_scan_notes_the_first_gap_and_keeps_the_whole_union(monkeypatch):
    # a staged table whose union first leaves a gap at h = 6
    rows = {1: ((0, 1), 69), 2: ((2,), 116), 3: ((), 175), 4: ((), 246),
            5: ((), 329), 6: ((4,), 424), 7: ((6,), 531), 8: ((3, 5), 650)}
    monkeypatch.setattr(classify, "build_s_table",
                        lambda H, budget: classify.HTable(kind="S", rows=rows, horizon=650))
    report = conjecture_scan(8)
    assert report.consecutive_union_above_5 is False
    assert report.union == (0, 1, 2, 3, 4, 5, 6)
    assert report.notes == (
        "h>16 clauses vacuous for H=8: no counterexample, no evidence",
        "union through h=6 is not consecutive")


class RefusingPool:
    """Stands in for ProcessPoolExecutor and fails any attempt to start one."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def test_tables_never_start_a_process_pool(monkeypatch, capsys):
    # --workers lives on the CLI only; no count may start a pool there
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    for argv in (["table", "S", "3"], ["table", "Shat", "6"]):
        outs = []
        for workers in ("1", "2", str(10 ** 6)):
            assert main(argv + ["--workers", workers]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0].startswith(f"# table {argv[1]} ")
        assert outs[1] == outs[0] and outs[2] == outs[0]


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
    for H in range(1, 9):
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


def carried_s_table(H, budget=Budget()):
    """The witness-first sweep over one carried (q;q)_m truncated at four
    times the horizon: rows, and every member's certificate."""
    horizon = s_cutoff(H)
    rows = {h: ([], s_cutoff(h)) for h in range(1, H + 1)}
    member_witness = {}
    for m, coeffs in enumerate(_carried_products(1, 1, horizon, 4 * horizon)):
        if max(coeffs) > H or min(coeffs) < -H:
            continue
        record = poch_class(m, budget)
        if record.h <= H:
            rows[record.h][0].append(m)
            member_witness[m] = record.witness
    return {h: (tuple(ms), c) for h, (ms, c) in rows.items()}, member_witness


@pytest.mark.parametrize("H, budget", [(H, Budget()) for H in range(1, 9)]
                         + [(12, Budget()), (9, Budget())])
def test_s_table_matches_the_carried_sweep(H, budget):
    table = build_s_table(H, budget)
    rows, member_witness = carried_s_table(H, budget)
    assert table.rows == rows
    assert table.horizon == s_cutoff(H)
    for m, witness in member_witness.items():
        assert table.certificates[m] == witness, (H, m)


#: H -> (non-members the ladder leaves to poch_class, the largest of them)
LADDER_LEFTOVERS = {1: (6, 10), 2: (2, 12), 3: (1, 12), 4: (1, 16),
                    5: (2, 18), 6: (1, 20), 7: (1, 20), 8: (0, None),
                    74: (44, 102)}


@pytest.mark.parametrize("H", list(LADDER_LEFTOVERS))
def test_s_sweep_expands_exactly_what_the_ladder_leaves(monkeypatch, H):
    # the full expansion of poch_class is paid once for each m no rung of
    # the ladder settles: every member and a few small non-members, whose
    # certificate is then poch_class's witness, a coefficient past H
    horizon = s_cutoff(H)
    tails = list(_tails([(7 - j) * (horizon + 1) for j in range(7)]))
    left = [m for m in range(horizon + 1)
            if classify._s_witness(tails, m, H) is None]
    calls = []

    def counted(m, budget=Budget()):
        calls.append(m)
        return poch_class(m, budget)

    monkeypatch.setattr(classify, "poch_class", counted)
    table = build_s_table(H)
    assert calls == left
    members = {m for ms, _c in table.rows.values() for m in ms}
    others = [m for m in left if m not in members]
    assert (len(others), max(others, default=None)) == LADDER_LEFTOVERS[H]
    for m in others:
        record = poch_class(m)
        assert record.h > H, m
        assert table.certificates[m] == record.witness, m


@pytest.mark.parametrize("H", [1, 8, 50, 74])
def test_s_sweep_runs_on_the_budget_it_asks_for(H):
    # the largest m the ladder leaves to poch_class has degree far below the
    # sweep's own gate, so no full expansion can exceed a budget the sweep
    # was admitted under
    build_s_table(H, Budget(max_order=7 * (s_cutoff(H) + 1) - 1))


def window_only_s_witness(tails, m, H):
    """A witness search by whole windows instead of the ladder: one probe at
    q^(4s-1), then the windows [js, (j+1)s), the one holding the largest
    values first; window 0 holds the pentagonal coefficients, all in
    {-1, 0, 1}, and window 1 comes last."""
    s = m + 1
    # near 4s the coefficient grows like m/8: one sum of four terms settles
    # most large m
    probe = 4 * s - 1
    if not -H <= _tail_coeff(tails, s, probe) <= H:
        return probe
    for j in (3, 2, 4, 5, 6, 1):
        for t in range(j * s, (j + 1) * s):
            if not -H <= _tail_coeff(tails, s, t) <= H:
                return t
    return None


@pytest.mark.parametrize("H", [50, 74])
def test_ladder_sweep_matches_the_window_only_sweep(monkeypatch, H):
    # the ladder leaves some non-members to poch_class that whole windows
    # settle, but rows, horizon and member certificates are unchanged
    table = build_s_table(H)
    monkeypatch.setattr(classify, "_s_witness", window_only_s_witness)
    reference = build_s_table(H)
    assert table.rows == reference.rows
    assert table.horizon == reference.horizon
    members = [m for ms, _c in table.rows.values() for m in ms]
    assert [table.certificates[m] for m in members] == \
        [reference.certificates[m] for m in members]
    if H == 74:
        # a non-member's certificate may move, but stays an exact witness
        others = sorted(set(range(table.horizon + 1)) - set(members))
        for m in random.Random(74).sample(others, 200):
            t = table.certificates[m]
            assert abs(pochhammer(1, 1, m, t).coeff(t)) > H, (m, t)


def test_sweeps_never_carry_the_factors(monkeypatch, capsys):
    def refuse(*_args):
        raise AssertionError("the carried route was taken")

    monkeypatch.setattr(series, "_carried_products", refuse)
    expected = {
        ("table", "S", "6"): (
            "# table S 6 1.0.0\n1\t0,1,2,3,5\t69\n2\t4,6,7,8,9,11\t116\n"
            "3\t10,13,14\t175\n4\t12,15\t246\n5\t17\t329\n6\t16,18\t424\n"),
        ("verify", "conjecture"): (
            "# verify conjecture 1.0.0\n"
            "scan-label EMPIRICAL\tpass\t\n"
            "rows-singleton h>16\tpass\tvacuous: no counterexample, no evidence\n"
            "members-increasing h>16\tpass\tvacuous: no counterexample, no evidence\n"
            "union-consecutive h>5\tpass\t\n"
            "union-through-8\tpass\t{0..21}\n"),
        ("verify", "windows"): (
            "# verify windows 1.0.0\n"
            "window 22<=m<=69 in [2,12]\tpass\t\n"
            "window m=42 value 2 at q^51\tpass\t\n"
            "window 69<m<=200 in [2,6]\tpass\t\n"
            "three-term-window 69<m<=200\tpass\t\n"),
    }
    for argv, out in expected.items():
        assert main(list(argv)) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        assert captured.out == out, argv


def test_eden_class_is_the_larger_of_the_head_and_the_factor():
    # the Shat lemma: past its head P, F_k is non-overlapping copies of
    # +-Q, Q = (q;q)_{k-1}, the first from q^(p1(ns) - shift) to
    # shat_bound(k), so h(F_k) = max(h(P), h(Q)), first attained in P on a
    # tie and otherwise at Q's witness in that first copy
    budget = Budget(max_order=shat_bound(30))  # 284896, past the default
    for k in range(2, 31):
        Q = series.qq_poly(k - 1)
        hp, wp = series.TruncSeries(fseries._split_head(k, Q.coeffs)).max_abs()
        hq, wq = Q.max_abs()
        first_copy = p1(k * (k - 1) // 2 + 1) - k * (k + 1) // 2
        record = eden_class(k, budget)
        expected = (hp, wp) if hp >= hq else (hq, first_copy + wq)
        assert (record.h, record.witness) == expected, k


def test_every_tail_read_finds_its_tails(monkeypatch):
    # _tail_coeff drops the term of a missing or too-short tail instead of
    # raising; every read of the S ladder and the window sweep must find
    # tails t // s and t - i*s in range, and the checks change no result
    runs = {("S", H): lambda H=H: build_s_table(H) for H in (1, 8, 20)}
    runs["windows"] = lambda: window_sweep(22, 200)
    plain = {name: run() for name, run in runs.items()}
    reads = []

    def checked(tails, s, t):
        assert t // s < len(tails), (s, t, len(tails))
        for i in range(t // s + 1):
            assert t - i * s < len(tails[i]), (s, t, i, len(tails[i]))
        reads.append(t)
        return _tail_coeff(tails, s, t)

    monkeypatch.setattr(classify, "_tail_coeff", checked)
    for name, run in runs.items():
        reads.clear()
        assert run() == plain[name], name
        assert reads, name
