"""End-to-end runs of the command-line interface via subprocess."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from qbloch import __version__
from qbloch.fseries import F_direct

B_HUGE_INDEX = str(10 ** 100)
B_HUGE_VALUE = -19888090251390639910818356938628130689602741018379


def run_cli(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "qbloch.cli", *argv],
                          capture_output=True, text=True, **kwargs)


def tsv_lines(proc):
    lines = proc.stdout.splitlines()
    assert lines and lines[0].startswith("# ")
    return lines


def test_expand_pnt_tsv_golden():
    proc = run_cli("expand", "pnt", "30")
    assert proc.returncode == 0
    lines = tsv_lines(proc)
    assert lines[0] == f"# expand pnt 30 {__version__}"
    pairs = [tuple(int(x) for x in line.split("\t")) for line in lines[1:]]
    assert pairs == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1),
                     (12, -1), (15, -1), (22, 1), (26, 1)]


def test_expand_poch_zero():
    proc = run_cli("expand", "poch", "0", "10")
    assert proc.returncode == 0
    lines = tsv_lines(proc)
    assert lines[0] == f"# expand poch 0 10 {__version__}"
    assert lines[1:] == ["0\t1"]


def test_order_flag_matches_positional():
    positional = run_cli("expand", "q2inf", "25")
    flagged = run_cli("expand", "q2inf", "--order", "25")
    assert positional.returncode == flagged.returncode == 0
    assert positional.stdout == flagged.stdout


def test_coeff_b_huge_index():
    proc = run_cli("coeff", "b", B_HUGE_INDEX)
    assert proc.returncode == 0
    lines = tsv_lines(proc)
    fields = lines[1].split("\t")
    assert fields[0] == str(B_HUGE_VALUE)
    assert fields[1] == "rise"


def test_coeff_rejects_non_numeral():
    proc = run_cli("coeff", "a", "1e5")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_expand_over_budget():
    proc = run_cli("expand", "pnt", "999999999")
    assert proc.returncode == 3
    assert "budget exceeded" in proc.stderr


def test_budget_flag_is_honored():
    ok = run_cli("expand", "pnt", "200")
    assert ok.returncode == 0
    clipped = run_cli("expand", "pnt", "200", "--budget-order", "100")
    assert clipped.returncode == 3


def test_missing_order_is_usage_error():
    proc = run_cli("expand", "pnt")
    assert proc.returncode == 2


def test_expand_json_round_trip():
    proc = run_cli("expand", "f", "2", "20", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"] == {"command": "expand", "args": ["f", "2", "20"],
                           "version": __version__}
    order = doc["data"]["order"]
    coeffs = [0] * (order + 1)
    for e, c in doc["data"]["coefficients"]:
        coeffs[e] = c
    assert coeffs == F_direct(2, None, 20).coeffs


def test_table_workers_byte_identical():
    runs = [run_cli("table", "S", "2", "--workers", str(w)) for w in (1, 3)]
    assert all(p.returncode == 0 for p in runs)
    assert runs[0].stdout == runs[1].stdout
    lines = tsv_lines(runs[0])
    assert lines[1] == "1\t0,1,2,3,5\t69"
    assert lines[2] == "2\t4,6,7,8,9,11\t116"


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "dump.tsv"
    direct = run_cli("expand", "pnt", "40")
    to_file = run_cli("expand", "pnt", "40", "--out", str(target))
    assert direct.returncode == to_file.returncode == 0
    assert to_file.stdout == ""
    assert target.read_text() == direct.stdout


def test_verify_identities_passes():
    proc = run_cli("verify", "identities")
    assert proc.returncode == 0
    lines = tsv_lines(proc)
    assert lines[0] == f"# verify identities {__version__}"
    assert len(lines) >= 6  # header plus five checks
    for line in lines[1:]:
        assert line.split("\t")[1] == "pass"


def test_console_script_installed():
    exe = shutil.which("qbloch")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "expand", "pnt", "12"],
                          capture_output=True, text=True)
    via_module = run_cli("expand", "pnt", "12")
    assert proc.returncode == 0
    assert proc.stdout == via_module.stdout


def product_reference(exponents, N):
    # independent reference: one full-length pass per factor (1 - q^d)
    coeffs = [1] + [0] * N
    for d in exponents:
        for t in range(N, d - 1, -1):
            coeffs[t] -= coeffs[t - d]
    return coeffs


@pytest.mark.parametrize("target,idx", [("q2inf", None), ("q3inf", None),
                                        ("poch", 60), ("f", 1), ("f", 7)])
def test_expand_matches_reference_rows(target, idx):
    N = 1500
    if target == "f":
        coeffs = F_direct(idx, None, N).coeffs
    else:
        first, count = {"q2inf": (2, N), "q3inf": (3, N), "poch": (1, idx)}[target]
        coeffs = product_reference(range(first, min(first + count, N + 1)), N)
    pairs = [(e, c) for e, c in enumerate(coeffs) if c]
    args = [target] + ([str(idx)] if idx is not None else []) + [str(N)]

    tsv = run_cli("expand", *args)
    assert tsv.returncode == 0
    assert tsv.stdout == "".join([f"# expand {' '.join(args)} {__version__}\n"]
                                 + [f"{e}\t{c}\n" for e, c in pairs])

    js = run_cli("expand", *args, "--format", "json")
    assert js.returncode == 0
    assert js.stdout == json.dumps(
        {"meta": {"command": "expand", "args": args, "version": __version__},
         "data": {"order": N, "coefficients": [[e, c] for e, c in pairs]}}) + "\n"


def test_conflicting_orders_are_a_usage_error():
    proc = run_cli("expand", "f", "3", "5", "--order", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: conflicting orders")
    assert len(proc.stderr.splitlines()) == 1
    agree = run_cli("expand", "f", "3", "5", "--order", "5")
    assert agree.returncode == 0
    assert agree.stdout == run_cli("expand", "f", "3", "5").stdout


def test_unwritable_out_is_a_one_line_error(tmp_path):
    target = tmp_path / "missing" / "x.tsv"
    proc = run_cli("expand", "pnt", "10", "--out", str(target))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("output error: cannot write")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "missing").exists()
    onto_dir = run_cli("expand", "pnt", "10", "--out", str(tmp_path))
    assert onto_dir.returncode == 4
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_no_partial_out_file(tmp_path):
    target = tmp_path / "dump.tsv"
    target.write_text("previous contents\n")
    for argv, code in ((("expand", "pnt", "999999999"), 3),
                       (("expand", "f", "3", "5", "--order", "10"), 2)):
        proc = run_cli(*argv, "--out", str(target))
        assert proc.returncode == code
        assert target.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.tsv"]
    ok = run_cli("expand", "pnt", "12", "--out", str(target))
    assert ok.returncode == 0
    assert target.read_text() == run_cli("expand", "pnt", "12").stdout
    assert [p.name for p in tmp_path.iterdir()] == ["dump.tsv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_to_a_pipe_writes_in_place():
    proc = run_cli("expand", "pnt", "12", "--out", "/dev/stdout")
    assert proc.returncode == 0
    assert proc.stdout == run_cli("expand", "pnt", "12").stdout


def test_expand_f_with_large_k_is_quick():
    # k(k+1)/2 far above the order: the defining sum has one term
    for k, order in ((2000, 100), (100_000, 10)):
        proc = run_cli("expand", "f", str(k), str(order), timeout=60)
        assert proc.returncode == 0
        rows = [tuple(int(x) for x in line.split("\t"))
                for line in tsv_lines(proc)[1:]]
        assert rows == F_direct(k, None, order).nonzero_items() == [(0, 1)]


def test_oserror_from_the_command_is_not_an_output_error(tmp_path, monkeypatch):
    # only errors of the --out file itself map to exit 4
    from qbloch import cli

    def broken(args, budget, out_stream):
        out_stream.write("partial\n")
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "_cmd_expand", broken)
    target = tmp_path / "x.tsv"
    with pytest.raises(OSError):
        cli.main(["expand", "pnt", "5", "--out", str(target)])
    assert list(tmp_path.iterdir()) == []


def test_out_through_a_symlink_keeps_the_link_and_the_mode(tmp_path):
    target = tmp_path / "data.tsv"
    target.write_text("old\n")
    os.chmod(target, 0o640)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    proc = run_cli("expand", "pnt", "12", "--out", str(link))
    assert proc.returncode == 0
    assert link.is_symlink()
    assert target.read_text() == run_cli("expand", "pnt", "12").stdout
    assert os.stat(target).st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.tsv", "link.tsv"]
