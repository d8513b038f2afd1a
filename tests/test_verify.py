"""The verify suites run in-process through main: exact stdout, exit codes,
and the json records against the tsv rows."""

import hashlib
import json

import pytest

from qbloch import __version__, fseries
from qbloch.cli import main

VACUOUS = "vacuous: no counterexample, no evidence"

GOLDEN_ROWS = {
    "identities": [
        ("finite-recurrence k<=4 M<=12", "pass", ""),
        ("one-mod-k-sum k<=4 M<=8", "pass", ""),
        ("base-identity M<=30", "pass", ""),
        ("backsolve-vs-direct k<=6 N=300", "pass", ""),
        ("tail-split-reconstruct k<=6 N=500", "pass", ""),
    ],
    "oracle": [
        ("signed-enum-vs-table n<=36", "pass", ""),
        ("signed-table-vs-products n<=300", "pass", ""),
        ("eden-signed-vs-series k<=3 n<=40", "pass", ""),
        ("one-mod-k-enum-vs-poly k<=3 M<=5", "pass", ""),
        ("enumeration-exhaustive n<=30", "pass", ""),
    ],
    "corrections": [
        ("correction k=1 BP-to-500", "pass", ""),
        ("correction k=2 BP-to-500", "pass", ""),
        ("correction k=3 BP-to-500", "pass", ""),
        ("correction k=4 BP-to-500", "pass", ""),
        ("correction k=6 BP-to-500", "pass", ""),
        ("correction k=5 none-exists", "pass", "max |coeff| 3 at q^25"),
        ("correction k=7 none-exists", "pass", "max |coeff| 4 at q^49"),
        ("correction k=8 none-exists", "pass", "max |coeff| 3 at q^64"),
        ("correction k=9 none-exists", "pass", "max |coeff| 4 at q^90"),
        ("correction k=10 none-exists", "pass", "max |coeff| 6 at q^133"),
        ("correction k=11 none-exists", "pass", "max |coeff| 7 at q^143"),
        ("correction k=12 none-exists", "pass", "max |coeff| 6 at q^183"),
    ],
    "windows": [
        ("window 22<=m<=69 in [2,12]", "pass", ""),
        ("window m=42 value 2 at q^51", "pass", ""),
        ("window 69<m<=200 in [2,6]", "pass", ""),
        ("three-term-window 69<m<=200", "pass", ""),
    ],
    "conjecture": [
        ("scan-label EMPIRICAL", "pass", ""),
        ("rows-singleton h>16", "pass", VACUOUS),
        ("members-increasing h>16", "pass", VACUOUS),
        ("union-consecutive h>5", "pass", ""),
        ("union-through-8", "pass", "{0..21}"),
    ],
}


def run_main(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def tsv_text(suite, rows):
    return (f"# verify {suite} {__version__}\n"
            + "".join("\t".join(row) + "\n" for row in rows))


@pytest.mark.parametrize("suite", list(GOLDEN_ROWS))
def test_verify_suite_golden_tsv_and_json(capsys, suite):
    code, out = run_main(capsys, "verify", suite)
    assert code == 0
    assert out == tsv_text(suite, GOLDEN_ROWS[suite])

    code, out = run_main(capsys, "verify", suite, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"command": "verify", "args": [suite],
                           "version": __version__}
    assert doc["data"] == [{"check": name, "result": result, "detail": detail}
                           for name, result, detail in GOLDEN_ROWS[suite]]


#: SHA-256 of the stdout of the two suites that read F_k's split, recorded
#: from the builders that passed the head and the tail as TruncSeries.
VERIFY_STDOUT_SHA256 = {
    ("identities", "tsv"): "6441e5921b9549060452eb8be4e38f3fe6b34f33c05d7f6fd1dd8fbfe34575ea",
    ("identities", "json"): "7013b0e86e3b7f70112ebd2f2702d89e7823606fadc93d06708dbe50d2501c1c",
    ("corrections", "tsv"): "d22ebb47c297165e1d996d45281d875b4cc541abf9d686aa69720c12fc1a9f26",
    ("corrections", "json"): "3ca5162370000f16ee41a789cae4d4c26567109c49df1686af65285cbd352ab3",
}


@pytest.mark.parametrize("suite, fmt", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_pinned(capsys, suite, fmt):
    code, out = run_main(capsys, "verify", suite, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[suite, fmt]


def test_verify_failed_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(fseries, "recurrence_check", lambda *args, **kw: False)
    failed = "finite-recurrence k<=4 M<=12"
    rows = [(name, "fail" if name == failed else result, detail)
            for name, result, detail in GOLDEN_ROWS["identities"]]

    code, out = run_main(capsys, "verify", "identities")
    assert code == 1
    assert out == tsv_text("identities", rows)

    code, out = run_main(capsys, "verify", "identities", "--format", "json")
    assert code == 1
    data = json.loads(out)["data"]
    assert data[0] == {"check": failed, "result": "fail", "detail": ""}
    assert all(record["result"] == "pass" for record in data[1:])


def test_verify_corrections_builds_no_reference_sum(capsys, monkeypatch):
    # the suite reads each F_k from F_backsolve; F_direct is left to the
    # checks that compare a builder with it
    def refuse(*args, **kw):
        raise AssertionError("verify corrections called F_direct")
    monkeypatch.setattr(fseries, "F_direct", refuse)

    code, out = run_main(capsys, "verify", "corrections")
    assert code == 0
    assert out == tsv_text("corrections", GOLDEN_ROWS["corrections"])

    code, out = run_main(capsys, "verify", "corrections", "--format", "json")
    assert code == 0
    assert json.loads(out)["data"] == [
        {"check": name, "result": result, "detail": detail}
        for name, result, detail in GOLDEN_ROWS["corrections"]]


def test_verify_identities_builds_each_reference_sum_once(capsys, monkeypatch):
    # F_backsolve(k, 300) for k >= 2 is compared with the head of the
    # order-500 sum the tail-split check builds anyway
    calls = []
    direct = fseries.F_direct

    def recorded(*args):
        calls.append(args)
        return direct(*args)
    monkeypatch.setattr(fseries, "F_direct", recorded)

    code, out = run_main(capsys, "verify", "identities")
    assert code == 0
    assert out == tsv_text("identities", GOLDEN_ROWS["identities"])
    assert len(set(calls)) == len(calls), calls
    assert [k for k, M, N in calls if M is None and N == 300] == [1]
    assert {k for k, M, N in calls if M is None and N == 500} == set(range(2, 7))
