"""qbloch benchmark: one closed-loop client driving qbloch.cli.main in-process.

    python3 perfbench/run.py --workload coeff-query --seed 1 --seconds 20 --trace 0

Each operation is one CLI command; the next starts only after the previous
returns.  A run repeats whole passes over the workload's seeded command list
until --seconds have passed (at least MIN_PASSES), checks every output
against computations in checks.py, and prints one JSON object as its last
line.  Latency metrics are taken over each command's median time across
the passes.  With --trace 0 the metrics are the end-to-end ones, measured with
nothing wrapped; with --trace 1 every layer is wrapped (tracing.py) and the
metrics are per-layer, per pass of the same command list.  Every run also
writes a record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 2
COLD_STARTS = 21
#: Non-members of each S table whose height is recomputed, per check.
S_SAMPLE = 4
COLD_START = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qbloch.cli\n"
    "qbloch.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class Fault(Exception):
    """A command that ended without output: an exception or a non-zero exit."""


def setup_seconds() -> float:
    """Median cold start of `import qbloch.cli` plus build_parser, each in a
    fresh interpreter; one untimed start first writes the bytecode cache."""
    times = []
    for i in range(COLD_STARTS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", COLD_START, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def run_command(cli, cmd):
    """(seconds, stdout text) of one in-process CLI call; raises Fault."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(cmd.argv())
        except Exception as exc:  # a traceback for the user: the op failed
            raise Fault(f"{type(exc).__name__}: {str(exc)[:200]}") from None
        finally:
            elapsed = time.perf_counter() - start
    if code != 0 or err.getvalue():
        raise Fault(f"exit {code}: {err.getvalue()[:200]}")
    return elapsed, out.getvalue()


class Checker:
    """Checks each distinct command's output once against checks.py; later
    passes must reproduce the verified bytes exactly.  Only digests of the
    outputs are kept, so the harness holds no output text past its check."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed ^ 0x5EED)
        self.point = self.rng.randrange(2, checks.PRIME)
        self.small = None
        self.heights = checks.Heights()
        self.verified = {}
        self.coeff_values = defaultdict(dict)

    def check(self, cmd, text, hashed, outputs) -> None:
        """hashed is text's digest; outputs maps the earlier commands of this
        pass to their digests."""
        key = tuple(cmd.argv())
        if key in self.verified:
            checks.require(hashed == self.verified[key], f"{' '.join(key)[:80]}: output changed")
            return
        if cmd.twin >= 0:
            checks.require(hashed == outputs[cmd.twin],
                           f"{' '.join(key)[:80]}: differs from --workers 1")
        kind = cmd.args[0]
        if kind == "expand":
            checks.check_expand(cmd.args, cmd.fmt, text, self.point)
        elif kind == "coeff":
            if self.small is None:
                self.small = checks.SmallProducts()
            value = checks.check_coeff(cmd.args, cmd.fmt, text, self.small)
            if cmd.j:
                group = self.coeff_values[cmd.j]
                group[cmd.args[1], checks.parse_int(cmd.args[2])] = value
                if len(group) == 6:
                    checks.check_coeff_group(checks.parse_int(cmd.j), group)
        elif kind == "table" and cmd.args[1] == "S":
            checks.check_s_table(cmd.args, cmd.fmt, text, self.heights,
                                 lambda others: self.rng.sample(others, S_SAMPLE))
        elif kind == "table":
            checks.check_shat_table(cmd.args, cmd.fmt, text, self.heights)
        else:
            checks.check_verify(cmd.args, cmd.fmt, text)
        self.verified[key] = hashed


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git:
    a loose ref file, else the ref's line in packed-refs."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbloch" / "cli.py").is_file():
        print(f"no qbloch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qbloch.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "qbloch":
        print(f"imported qbloch from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup = setup_seconds() if not args.trace else None
    commands = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    checker = Checker(args.seed)
    # The interpreter, qbloch and the harness before the first command.
    baseline_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = defaultdict(list)  # command index -> seconds, one per pass
    attempted = failed = passes = out_bytes = 0
    correct = True
    faults = {}
    begin = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        outputs = {}
        for index, cmd in enumerate(commands):
            attempted += 1
            try:
                elapsed, text = run_command(cli, cmd)
            except Fault as fault:
                failed += 1
                faults.setdefault(cmd.kind, str(fault))
                continue
            data = text.encode()
            hashed = outputs[index] = hashlib.sha256(data).digest()
            out_bytes += len(data)
            del data
            if cmd.timed:
                samples[index].append(elapsed)
            try:
                checker.check(cmd, text, hashed, outputs)
            except (checks.CheckError, ValueError, LookupError, TypeError) as exc:
                correct = False
                print(f"wrong output: {' '.join(cmd.argv())[:100]}: {exc}", file=sys.stderr)
        passes += 1

    for kind, message in faults.items():
        print(f"failed: {kind}: {message}", file=sys.stderr)
    # Each command's median over the passes damps bursts of machine noise
    # shorter than a pass; the metrics are taken over these medians.
    medians = {index: statistics.median(values) for index, values in samples.items()}
    by_kind = defaultdict(list)
    for index, value in medians.items():
        by_kind[commands[index].kind].append(value)
    for kind, values in sorted(by_kind.items()):
        print(f"{kind:24s} commands {len(values):4d} median {statistics.median(values) * 1e3:10.3f} ms")
    print(f"passes {passes}, attempted {attempted}, failed {failed}, "
          f"timed samples {sum(map(len, samples.values()))}")
    per_pass = list(medians.values())
    throughput = len(per_pass) / sum(per_pass)

    if args.trace:
        metrics = tracer.layer_metrics(passes, out_bytes)
        extra = {"traced_cmds_per_s": throughput}
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "cmds_per_s": {"value": throughput, "unit": "1/s"},
            "cmd_gmean_ms": {"value": statistics.geometric_mean(per_pass) * 1e3, "unit": "ms"},
            "cmd_p99_ms": {"value": percentile(per_pass, 99) * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": rss / 1024, "unit": "MiB"},
        }
        extra = {}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "worker_counts": sorted({c.workers for c in commands}),
        "baseline_rss_mib": baseline_rss,
        "passes": passes, "attempted": attempted, "failed": failed, "correct": correct,
        "kind_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
        "kind_commands": {k: len(v) for k, v in by_kind.items()},
        "metrics": metrics, **extra,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"{stem}.spans.jsonl.gz")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
