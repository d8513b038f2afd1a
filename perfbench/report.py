"""Run every workload over ten seeds and write perfbench/reference.md.

    python3 perfbench/report.py

Runs perfbench/run.py once per workload and seed 1..10, one process at a
time, with the run length from BENCHMARK.json; the first three seeds also
get a traced run.  Prints every end-to-end metric with its
unit, the attempted and failed counts of each workload, and each metric's
spread: the distance between the first and third quartile of its values over
the seeds, as a share of their median.  The traced runs give the per-layer
figures and the tracing overhead: each traced run follows the untraced run
of the same seed, and the overhead is the ratio of their commands per
second.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import git_sha  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEEDS = 3
OUT = HERE / "reference.md"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["wall_s"] = time.perf_counter() - start
    return result, record


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    lines = [
        "# Reference figures",
        "",
        f"Generated by `python3 perfbench/report.py` at commit `{git_sha()[:12]}`: "
        f"seeds {SEEDS[0]} to {SEEDS[-1]}, the first {TRACE_SEEDS} also traced; Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs, {seconds} s per run. "
        "Spread is (Q3 - Q1) / median over the seeds.",
        "",
    ]
    for work in bench["workloads"]:
        name = work["name"]
        plain, traced = [], []
        for i, seed in enumerate(SEEDS):
            plain.append(run_once(name, seed, seconds, 0))
            if i < TRACE_SEEDS:
                # Right after its untraced twin, so both see the same machine speed.
                traced.append(run_once(name, seed, seconds, 1))
        shares = sorted({r["failed"] / r["attempted"] for r, _ in plain})
        lines += [f"## {name}", "", work["why"], "",
                  f"Attempted {sum(r['attempted'] for r, _ in plain)}, failed "
                  f"{sum(r['failed'] for r, _ in plain)} over {len(plain)} runs "
                  f"(failed share per run: {', '.join(f'{s:.6f}' for s in shares)}); "
                  f"correct in every run: {all(r['correct'] for r, _ in plain)}.", "",
                  "| metric | unit | median | Q1 | Q3 | spread | bound |",
                  "|---|---|---|---|---|---|---|"]
        print(f"{name}: attempted {sum(r['attempted'] for r, _ in plain)}, "
              f"failed {sum(r['failed'] for r, _ in plain)}")
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in plain]
            q1, med, q3 = statistics.quantiles(values, n=4)
            lines.append(f"| {metric} | {spec['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{spread(values):.3f} | {spec['bound']} |")
            print(f"  {metric:14s} {med:12.5g} {spec['unit']:5s} spread {spread(values):.3f} "
                  f"(bound {spec['bound']})")
        baseline = statistics.median(rec["baseline_rss_mib"] for _, rec in plain)
        walls = [rec["wall_s"] for _, rec in plain]
        lines += ["", f"Resident memory before the first command (interpreter, qbloch and "
                  f"harness), median: {baseline:.2f} MiB. Wall time per untraced run: "
                  f"median {statistics.median(walls):.1f} s, longest {max(walls):.1f} s."]
        kinds = sorted({k for _, rec in plain for k in rec["kind_median_ms"]})
        lines += ["", "Median command time per kind (ms), median over seeds:", "",
                  "| kind | commands per pass | ms |", "|---|---|---|"]
        for kind in kinds:
            ms = statistics.median(rec["kind_median_ms"][kind] for _, rec in plain)
            n = statistics.median(rec["kind_commands"][kind] for _, rec in plain)
            lines.append(f"| {kind} | {n:g} | {ms:.4g} |")
        if traced:
            ratios = [p["metrics"]["cmds_per_s"]["value"] / rec["traced_cmds_per_s"]
                      for (p, _), (_, rec) in zip(plain, traced)]
            lines += ["", "Tracing overhead: untraced over traced commands per second, per "
                      f"seed pair: {', '.join(f'{r:.3f}' for r in ratios)}; median "
                      f"{statistics.median(ratios):.3f}. Above 1, tracing costs time.", "",
                      "Per-layer metrics, per traced pass, median over the traced runs "
                      "(0 where the workload does not reach the layer):", "", "| metric | unit | value |",
                      "|---|---|---|"]
            for metric in layers:
                value = statistics.median(r["metrics"][metric]["value"] for r, _ in traced)
                lines.append(f"| {metric} | {traced[0][0]['metrics'][metric]['unit']} | {value:.6g} |")
        lines.append("")
    OUT.write_text("\n".join(lines))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
