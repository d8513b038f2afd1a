"""End-to-end runs of the command-line interface, via subprocess except
for the random-argv contract test, which calls main in-process."""

import hashlib
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qbloch import __version__
from qbloch.cli import main
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


#: SHA-256 of the stdout of `expand pnt N --format F`, recorded from the
#: dense-list implementation that built and scanned the whole series.
PNT_STDOUT_SHA256 = {
    (0, "tsv"): "426f6cd7f8e7e053ed25e374600995cb4d6cf4b962e9a320829a40b8a857d417",
    (0, "json"): "85639392e6644750f0f4486a82e88cedea41fdfbeac8dd210f410e6862255d48",
    (1, "tsv"): "970be25d91a84b6fe54e89c45a92ce622ab35d8cbd7ae317d3a4fb9aaba44eef",
    (1, "json"): "a8d1e3ff124ede7fa17442fddad38d57e73c828545f69f57a2fc7e7337e8dc9c",
    (2, "tsv"): "d324bd9350ce7391dc494e8c1278a4300162d6c2a55f728f7530e0818a95ee30",
    (2, "json"): "0e57efb39702146dcf561a3de3f7264f6a9892bb0ed7696618712da93a0f3777",
    (5, "tsv"): "a846c37fc7707f08209b07e5c8569bab483c7c68fd8a9c46664620539759f548",
    (5, "json"): "49b3c949bfb7510fae07a36903fa16d096b13cbd43acb966ccd5ed4a3723fe66",
    (7, "tsv"): "e465950e6edd909b99f3603edd3084d8c7731100fa63ac07e1ba520a9472539e",
    (7, "json"): "1e215a4e6563290ec2110bce8cbd133c624883c4f1401f85374bf35c128f2972",
    (12, "tsv"): "ccc0f748a1bad85a34508514c355fcc10c363b1643ed4107fa7f3467525f2ff2",
    (12, "json"): "5a67d0b98f39c8748cb639574ee2bfedc7589419ec2442a3703c297b78424596",
    (40, "tsv"): "e3e2986f90ec3ee3d7bb7e95404070b3d5f5463b62fec0c6bca0e488450a21a7",
    (40, "json"): "6346b5d7a1ad0d6a459da9c5bc202d91af5a1c5c1038ed7feda3c36186ebe703",
    (250000, "tsv"): "1d008b40f4c415a004511ea18df00c6e9c85e4ee2cf5270ffd93c4a3dd31c151",
    (250000, "json"): "850f0ebe7b257c3243a1eee725819cb32619aa66954c8d597efb4006eda4076c",
}


@pytest.mark.parametrize("order, fmt", sorted(PNT_STDOUT_SHA256))
def test_expand_pnt_stdout_is_pinned(order, fmt, capsys):
    assert main(["expand", "pnt", str(order), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PNT_STDOUT_SHA256[order, fmt]


@pytest.mark.parametrize("fmt", ("tsv", "json"))
def test_expand_pnt_memory_follows_its_terms(fmt, capsys):
    # order 250000 has 817 nonzero terms; a dense list of its coefficients
    # alone would take about 2 MiB
    tracemalloc.start()
    try:
        assert main(["expand", "pnt", "250000", "--format", fmt]) == 0
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1 << 20, peak


#: SHA-256 of the stdout of each expand-mix benchmark command, recorded
#: from the renderer that formatted one string per (e, c) row.
EXPAND_MIX_STDOUT_SHA256 = {
    ("pnt 250000", "tsv"): "1d008b40f4c415a004511ea18df00c6e9c85e4ee2cf5270ffd93c4a3dd31c151",
    ("pnt 250000", "json"): "850f0ebe7b257c3243a1eee725819cb32619aa66954c8d597efb4006eda4076c",
    ("q2inf 5000", "tsv"): "4689338d6af5280f876e84b1dc585cd2409e23d40c6cf9bf3099e96daf43cb73",
    ("q3inf 5000", "json"): "ff14c7b54bb150721ae199c6f3907c903e37be6e96158e2702194d11dca382cd",
    ("q3inf 7000", "tsv"): "31bd509b92cc95b0cc35fb3341d0309044a1962ed779511c859069323295548d",
    ("poch 300 45150", "tsv"): "8348ad55df451c87aeaa6dae1e3046b11321dede654016910c3b285e0295224c",
    ("poch 150 11325", "json"): "3d558a402543a18e35c1474f3e84df0c2216f1a36202dc2eec3dfc84a2d57c48",
    ("poch 120 2000", "tsv"): "974f35598573060c3260732b3a604a318a4611a9f7fea1e7791cccbc59c617c4",
    ("f 1 4000", "tsv"): "d7f9764073546dfb61ee2004495a7733f1d6f0322090771b2b504e89dad00502",
    ("f 3 4000", "json"): "e521a4cf9117becd4391f0809aee8b53624b1a7c40a113d905295f97cb80ce8e",
    ("f 8 5000", "tsv"): "401c1849cbba1c898f0c637919e01af7977e5e2e401e83ac148d39ab2794d8bc",
}


@pytest.mark.parametrize("params, fmt", sorted(EXPAND_MIX_STDOUT_SHA256))
def test_expand_mix_stdout_is_pinned(params, fmt, capsys):
    assert main(["expand", *params.split(), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_MIX_STDOUT_SHA256[params, fmt]


def traced_peak(argv):
    """The traced peak of main(argv), run once untraced before, so that
    imports and the interpreter's free lists do not shift the figure."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expand_poch_memory_follows_its_output(capsys):
    # (q;q)_300 to its full degree has 45,151 nonzero terms and about 1 MB of
    # TSV; formatting one string and one tuple per row peaked at 8.8 MiB, the
    # cells of two columns formatted by one % peak at 5.3 MiB
    peak = traced_peak(["expand", "poch", "300", "45150"])
    capsys.readouterr()
    assert peak < 7 << 20, peak
    # JSON still encodes the (e, c) pairs and builds no columns besides:
    # 3,016,814 bytes with the per-row renderer, here at most 5% more
    peak = traced_peak(["expand", "poch", "150", "11325", "--format", "json"])
    capsys.readouterr()
    assert peak <= 3_016_814 * 1.05, peak


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


def test_readme_coeff_b_row_is_current(capsys):
    # README's worked coeff b example, an index on a fall at 10^20
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    [shown] = re.findall(r"^\$ qbloch coeff b 100000000000000000000\n(.*?)^```$",
                         text, re.DOTALL | re.MULTILINE)
    assert main(["coeff", "b", "100000000000000000000"]) == 0
    assert capsys.readouterr().out == shown
    assert shown.splitlines()[1].split("\t")[:3] == ["2727992717", "fall", "4082482904"]


@pytest.mark.parametrize("which,index", [("a", "2" * 4301), ("b", "3" * 10000),
                                         ("a", "9" * 4300), ("b", "9" * 4300)])
def test_coeff_past_the_int_conversion_limit_is_refused(which, index):
    # a 4300-digit index of nines lies in a block whose upper bound has 4301
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"}
    proc = run_cli("coeff", which, index, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")
    assert proc.stderr.count("\n") == 1


def test_coeff_without_an_int_conversion_limit_answers_past_4300_digits():
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0"}
    proc = run_cli("coeff", "b", "9" * 4301, env=env)
    assert proc.returncode == 0
    upper = tsv_lines(proc)[1].split("\t")[5]
    assert len(upper) == 4302  # printable only without the limit
    refused = run_cli("coeff", "b", "3" * 10001, env=env)
    assert refused.returncode == 3


@pytest.mark.parametrize("which,index,limit,allowed", [("b", "3" * 10001, "0", 10000),
                                                       ("a", "2" * 4301, "4300", 4300)])
def test_digit_refusal_line_is_pinned(which, index, limit, allowed):
    # the digit cap alone (no interpreter limit) and the interpreter's limit
    # below it print one line, naming both caps
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": limit}
    proc = run_cli("coeff", which, index, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (f"budget exceeded: index has {len(index)} digits, at most "
                           f"{allowed} are allowed (the digit budget or the "
                           "interpreter's int conversion limit, whichever is lower)\n")


def test_coeff_rejects_non_numeral():
    for index in ("1e5", "12\n"):
        proc = run_cli("coeff", "a", index)
        assert proc.returncode == 2, repr(index)
        assert proc.stdout == ""
        assert "usage error" in proc.stderr


def test_expand_over_budget():
    proc = run_cli("expand", "pnt", "999999999")
    assert proc.returncode == 3
    assert "budget exceeded" in proc.stderr


def test_order_gate_line_names_the_gate_and_the_order(capsys):
    # the line states what the gate compares and nothing it does not measure
    assert main(["table", "S", "75"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: build_s_table(75) needs expansion "
                            "order 251719 > budget 250000\n")


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


#: Runs cli.main in a fresh interpreter on the arguments after the first,
#: the source directory, which goes first on sys.path.
FRESH_MAIN = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from qbloch import cli\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


@pytest.mark.parametrize("argv", [("coeff", "b", "69"), ("expand", "poch", "5", "15")])
def test_json_output_of_a_fresh_interpreter_matches_in_process(argv, capsys):
    # json is imported only by the JSON branch of the renderer; this process
    # already holds it, so a fresh interpreter is where a missing import shows
    argv = [*argv, "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    src = Path(importlib.import_module("qbloch").__file__).parent.parent
    proc = subprocess.run([sys.executable, "-I", "-c", FRESH_MAIN, str(src), *argv],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_table_workers_byte_identical():
    for limit, workers in (("2", (1, 3)), ("3", (1, 2, 5))):
        runs = [run_cli("table", "S", limit, "--workers", str(w)) for w in workers]
        assert all(p.returncode == 0 for p in runs)
        assert all(p.stdout == runs[0].stdout for p in runs)
        lines = tsv_lines(runs[0])
        assert lines[1] == "1\t0,1,2,3,5\t69"
        assert lines[2] == "2\t4,6,7,8,9,11\t116"
    assert lines[3] == "3\t10,13,14\t175"


def test_worker_argument_validation():
    for argv in (("table", "S", "2", "--workers", "0"),
                 ("table", "Shat", "3", "--workers", "-1")):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: --workers must be >= 1")
        assert len(proc.stderr.splitlines()) == 1


def test_verify_corrections_honors_the_order_budget():
    # the none-exists rows classify F_k to shat_bound(k), 1239 for k = 8
    proc = run_cli("verify", "corrections", "--budget-order", "1000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")
    assert len(proc.stderr.splitlines()) == 1


def test_verify_identities_honors_the_order_budget():
    # the suite's tail splits run at order 500; it exits 0 at budget 500
    proc = run_cli("verify", "identities", "--budget-order", "100")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("flags", [("--budget-order", "0"), ("--budget-enum", "3"),
                                   ("--budget-enum", "38")])
def test_verify_oracle_refuses_a_small_budget(flags):
    # the suite's checks run at order 300 and enumerate to n = 40 (the Eden
    # counts, under the one enumeration cap); a smaller budget is refused,
    # the checks never shrink
    proc = run_cli("verify", "oracle", *flags)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: verify oracle needs ")
    assert len(proc.stderr.splitlines()) == 1


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


def test_console_script_entry_point_names_main():
    # checked without an install: pyproject's [project.scripts] line must
    # name the main that `python -m qbloch.cli` runs (read with a regex,
    # since tomllib needs Python 3.11 and the package supports 3.10)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.findall(r'^qbloch = "([\w.]+):(\w+)"$',
                       pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert found == [("qbloch.cli", "main")]
    module, name = found[0]
    assert getattr(importlib.import_module(module), name) is main


def product_reference(exponents, N):
    # independent reference: one full-length pass per factor (1 - q^d)
    coeffs = [1] + [0] * N
    for d in exponents:
        for t in range(N, d - 1, -1):
            coeffs[t] -= coeffs[t - d]
    return coeffs


@pytest.mark.parametrize("target,idx,N", [
    # order 1500, named by target and index alone
    *(pytest.param(target, idx, 1500, id=f"{target}-{idx}")
      for target, idx in (("q2inf", None), ("q3inf", None), ("poch", 60),
                          ("f", 1), ("f", 7))),
    # full degree m(m+1)/2, odd and even m: the upper half is the mirror
    # c_(D-t) = (-1)^m c_t of the lower
    ("poch", 59, 1770), ("poch", 60, 1830),
    # order 0: the constant term alone, one row
    ("q3inf", None, 0), ("poch", 4, 0), ("f", 3, 0)])
def test_expand_matches_reference_rows(target, idx, N, tmp_path):
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

    target_file = tmp_path / "expand.tsv"
    to_file = run_cli("expand", *args, "--out", str(target_file))
    assert (to_file.returncode, to_file.stdout) == (0, "")
    assert target_file.read_text(encoding="utf-8") == tsv.stdout

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

    def broken(args, budget):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "_cmd_expand", broken)
    target = tmp_path / "x.tsv"
    with pytest.raises(OSError):
        cli.main(["expand", "pnt", "5", "--out", str(target)])
    assert list(tmp_path.iterdir()) == []


class CountingStdout:
    """Stands in for sys.stdout and keeps every text written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("argv", [("expand", "pnt", "12"), ("expand", "poch", "5", "15"),
                                  ("coeff", "a", "12"), ("table", "S", "2"),
                                  ("verify", "conjecture")])
def test_main_writes_its_output_once(argv, fmt, monkeypatch):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*argv, "--format", fmt]) == 0
    assert len(stdout.writes) == 1
    text = stdout.writes[0]
    if fmt == "json":
        assert json.loads(text)["meta"]["command"] == argv[0]
    else:
        assert text.startswith(f"# {' '.join(argv)} {__version__}\n")
        assert len(text.splitlines()) > 1


def test_a_failing_handler_writes_nothing(monkeypatch, capsys):
    from qbloch import cli
    from qbloch.errors import UsageError

    def failing(args, budget):
        raise UsageError("refused")

    monkeypatch.setattr(cli, "_cmd_coeff", failing)
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["coeff", "a", "12"]) == 2
    assert stdout.writes == []
    assert capsys.readouterr().err == "usage error: refused\n"


def test_unwritable_out_is_refused_before_the_command_runs(tmp_path, monkeypatch, capsys):
    from qbloch import cli
    calls = []

    def recording(args, budget):
        calls.append(args.target)
        return 0, [], None, []

    monkeypatch.setattr(cli, "_cmd_expand", recording)
    target = tmp_path / "missing" / "x.tsv"
    assert cli.main(["expand", "pnt", "5", "--out", str(target)]) == 4
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"output error: cannot write {target}")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_to_a_full_device_is_a_one_line_error():
    proc = run_cli("expand", "pnt", "12", "--out", "/dev/full")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == ("output error: cannot write /dev/full: "
                           "No space left on device\n")


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


def _random_argv(rng, out_paths):
    """One argv over the CLI grammar; about one word in ten is invalid.
    Every argv carries both budget flags, at most 3000 and 40, which keep
    each accepted command small; each is negative about one time in four."""
    def pick(valid, invalid):
        return rng.choice(invalid if rng.random() < 0.1 else valid)

    def number():
        return pick(["-1", "0", "1", "2", "3", "7", "40", "999", "100000"], ["x", "1.5", ""])

    command = pick(["expand", "coeff", "table", "verify"], ["bogus"])
    argv = [command]
    if command == "expand":
        argv.append(pick(["pnt", "q2inf", "q3inf", "poch", "f"], ["nope"]))
        argv += [number() for _ in range(rng.randint(0, 3))]
    elif command == "coeff":
        argv.append(pick(["a", "b"], ["c"]))
        argv.append(pick(["0", "7", "12", "9" * 20, "9" * 4300, "9" * 4301],
                         ["12\n", " 12", "-4", "1e5", "", "12a", "\u0663"]))
    elif command == "table":
        argv += [pick(["S", "Shat"], ["T"]), number()]
    elif command == "verify":
        argv.append(pick(["identities", "oracle", "corrections", "windows",
                          "conjecture"], ["nope"]))
    if rng.random() < 0.3:
        argv += ["--order", number()]
    if rng.random() < 0.3:
        argv += ["--workers", pick(["1", "2", "1000000"], ["-1", "0"])]
    if rng.random() < 0.3:
        argv += ["--format", pick(["tsv", "json"], ["xml"])]
    if rng.random() < 0.2:
        argv += ["--out", rng.choice(out_paths)]
    argv += ["--budget-order", rng.choice(["-1", "-3000", "0", "50", "500", "3000",
                                           "3000", "3000"]),
             "--budget-enum", rng.choice(["-1", "-40", "0", "5", "40", "40", "40", "40"])]
    return argv


def test_random_argv_keeps_the_exit_code_contract(capsys, tmp_path):
    rng = random.Random(20171)
    out_paths = [str(tmp_path / "out.txt"), str(tmp_path / "no" / "out.txt"),
                 str(tmp_path)]
    seen = set()
    for _ in range(300):
        argv = _random_argv(rng, out_paths)
        parsed = True
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, argv
            code, parsed = 2, False
        captured = capsys.readouterr()
        err = captured.err
        assert code in (0, 1, 2, 3, 4), argv
        if code == 0:
            assert err == "", argv
        if parsed and any(word.startswith("-") for word in argv[-3::2]):
            # a negative budget is refused before any other check or work
            assert code == 2, argv
            assert err.startswith("usage error: --budget-"), argv
            assert len(err.splitlines()) == 1 and captured.out == "", argv
        seen.add(code)
    assert {0, 2, 3} <= seen
