"""Self-tests of the benchmark's checkers: real outputs pass, planted wrong
answers are rejected, and a seed always yields the same command list.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import hashlib
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qbloch import cli  # noqa: E402


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


def flip_tsv_value(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split("\t")
    fields[1] = str(-int(fields[1]) if int(fields[1]) else 1)
    lines[row] = "\t".join(fields) + "\n"
    return "".join(lines)


class ExpandChecks(unittest.TestCase):
    CASES = (["expand", "pnt", "400"], ["expand", "q2inf", "300"], ["expand", "q3inf", "300"],
             ["expand", "poch", "20", "210"], ["expand", "poch", "30", "200"],
             ["expand", "f", "1", "300"], ["expand", "f", "5", "400"])

    def test_real_outputs_pass(self):
        for args in self.CASES:
            for fmt in ("tsv", "json"):
                text = output(args + ["--format", fmt])
                checks.check_expand(args, fmt, text, point=123456789)

    def test_flipped_coefficient_is_rejected(self):
        for args in self.CASES:
            text = output(args)
            rows = len(text.splitlines())
            for row in (1, rows // 2, rows - 1):
                with self.subTest(args=args, row=row), self.assertRaises(checks.CheckError):
                    checks.check_expand(args, "tsv", flip_tsv_value(text, row), point=987654321)

    def test_flipped_json_coefficient_is_rejected(self):
        args = ["expand", "poch", "20", "210"]
        doc = json.loads(output(args + ["--format", "json"]))
        doc["data"]["coefficients"][7][1] += 1
        with self.assertRaises(checks.CheckError):
            checks.check_expand(args, "json", json.dumps(doc) + "\n", point=5)


class CoeffChecks(unittest.TestCase):
    INDICES = ("7", "26", "1000", "123456789012345678901234567890")

    def setUp(self):
        self.small = checks.SmallProducts()

    def test_real_outputs_pass(self):
        for which in "ab":
            for index in self.INDICES:
                for fmt in ("tsv", "json"):
                    args = ["coeff", which, index]
                    checks.check_coeff(args, fmt, output(args + ["--format", fmt]), self.small)

    def test_off_by_one_tsv_fields_are_rejected(self):
        for which in "ab":
            for index in self.INDICES:
                args = ["coeff", which, index]
                head, row = output(args).splitlines()
                fields = row.split("\t")
                for pos in (0, 2, 4, 5):  # value, block n, lower, upper
                    for delta in (-1, 1):
                        bad = list(fields)
                        bad[pos] = str(int(bad[pos]) + delta)
                        text = head + "\n" + "\t".join(bad) + "\n"
                        with self.subTest(args=args, pos=pos, delta=delta):
                            with self.assertRaises(checks.CheckError):
                                checks.check_coeff(args, "tsv", text, self.small)

    def test_off_by_one_json_bound_is_rejected(self):
        args = ["coeff", "b", self.INDICES[-1]]
        doc = json.loads(output(args + ["--format", "json"]))
        doc["data"]["block"]["upper"] += 1
        with self.assertRaises(checks.CheckError):
            checks.check_coeff(args, "json", json.dumps(doc), self.small)

    def test_group_relations_reject_a_shifted_b(self):
        j = 10 ** 30 + 7
        values = {}
        for which in "ab":
            for t in (j, j - 1, j - 2):
                args = ["coeff", which, str(t)]
                values[which, t] = checks.check_coeff(args, "tsv", output(args), self.small)
        checks.check_coeff_group(j, values)
        values["b", j] += 1
        with self.assertRaises(checks.CheckError):
            checks.check_coeff_group(j, values)


def move_member(text: str, src: int, dst: int) -> str:
    """Move the first member of row src to row dst of a TSV table."""
    lines = text.splitlines()
    rows = {int(line.split("\t")[0]): line.split("\t") for line in lines[1:]}
    members = rows[src][1].split(",")
    moved = members.pop(0)
    rows[src][1] = ",".join(members)
    rows[dst][1] = ",".join(sorted(rows[dst][1].split(",") + [moved], key=int)
                            if rows[dst][1] else [moved])
    return "\n".join([lines[0]] + ["\t".join(rows[h]) for h in sorted(rows)]) + "\n"


class TableChecks(unittest.TestCase):
    def setUp(self):
        self.heights = checks.Heights()

    def test_real_tables_pass(self):
        for kind, limit in (("S", "3"), ("Shat", "8")):
            for fmt in ("tsv", "json"):
                args = ["table", kind, limit]
                text = output(args + ["--format", fmt])
                if kind == "S":
                    checks.check_s_table(args, fmt, text, self.heights, lambda o: o[:3])
                else:
                    checks.check_shat_table(args, fmt, text, self.heights)

    def test_moved_s_member_is_rejected(self):
        args = ["table", "S", "3"]
        text = output(args)
        for src, dst in ((1, 2), (3, 1), (2, 3)):
            with self.subTest(src=src, dst=dst), self.assertRaises(checks.CheckError):
                checks.check_s_table(args, "tsv", move_member(text, src, dst),
                                     self.heights, lambda o: [])

    def test_moved_shat_member_is_rejected(self):
        args = ["table", "Shat", "8"]
        text = output(args)
        for src, dst in ((1, 2), (4, 3), (2, 5)):
            with self.subTest(src=src, dst=dst), self.assertRaises(checks.CheckError):
                checks.check_shat_table(args, "tsv", move_member(text, src, dst), self.heights)

    def test_dropped_s_member_is_caught_by_the_sample(self):
        args = ["table", "S", "3"]
        lines = output(args).splitlines()
        fields = lines[1].split("\t")
        fields[1] = fields[1].split(",", 1)[1]
        text = "\n".join([lines[0], "\t".join(fields)] + lines[2:]) + "\n"
        with self.assertRaises(checks.CheckError):
            checks.check_s_table(args, "tsv", text, self.heights, lambda o: o[:1])

    def test_failed_verify_line_is_rejected(self):
        text = "# verify identities 1.0.0\nbase-identity M<=30\tfail\t\n"
        with self.assertRaises(checks.CheckError):
            checks.check_verify(["verify", "identities"], "tsv", text)


class Seeds(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for name in workloads.WORKLOADS:
            first = [c.argv() for c in workloads.build(name, 11)]
            again = [c.argv() for c in workloads.build(name, 11)]
            other = [c.argv() for c in workloads.build(name, 12)]
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)
            self.assertEqual(sorted(map(len, first)), sorted(map(len, other)))

    def test_long_share_is_fixed(self):
        for seed in (1, 2, 3):
            commands = workloads.build("coeff-query", seed)
            self.assertEqual(sum(not c.timed for c in commands) * 6, len(commands))

    def test_long_index_parse_has_no_digit_limit(self):
        numeral = "7" * 9000
        self.assertEqual(checks.parse_int(numeral) % 10 ** 5, 77777)


class Harness(unittest.TestCase):
    def test_changed_output_is_rejected_on_a_later_pass(self):
        checker = run.Checker(1)
        cmd = workloads.Command(args=["expand", "pnt", "40"])
        text = output(cmd.argv())
        hashed = hashlib.sha256(text.encode()).digest()
        checker.check(cmd, text, hashed, {0: hashed})
        checker.check(cmd, text, hashed, {0: hashed})
        changed = hashlib.sha256(flip_tsv_value(text, 3).encode()).digest()
        with self.assertRaises(checks.CheckError):
            checker.check(cmd, text, changed, {0: changed})

    def test_git_sha_reads_packed_refs(self):
        sha = "0123456789abcdef0123456789abcdef01234567"
        saved = run.ROOT
        with tempfile.TemporaryDirectory() as tmp:
            git = Path(tmp) / ".git"
            git.mkdir()
            (git / "HEAD").write_text("ref: refs/heads/main\n")
            (git / "packed-refs").write_text(f"# pack-refs\n{sha} refs/heads/main\n")
            try:
                run.ROOT = Path(tmp)
                self.assertEqual(run.git_sha(), sha)
                (git / "refs" / "heads").mkdir(parents=True)
                (git / "refs" / "heads" / "main").write_text("f" * 40 + "\n")
                self.assertEqual(run.git_sha(), "f" * 40)
                run.ROOT = Path(tmp) / "none"
                self.assertEqual(run.git_sha(), "unknown")
            finally:
                run.ROOT = saved


if __name__ == "__main__":
    unittest.main()
