"""Seeded command lists for the three workloads.

A workload is one pass: a list of CLI commands as a user types them.  Runs
repeat whole passes, so every run has the same mix and the same share of
known-fault commands.  The seed fixes the order of the commands, the digits
of the coefficient-query indices, the evaluation point of the polynomial
check and the sample of non-members the S-table check certifies; it never
changes a size, so the work per pass is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Index lengths in digits for coeff-query, one group of six queries each.
#: Lengths up to 4300 are answered; the rest exceed CPython's int/str
#: conversion limit, which the default budget (10000 digits) still admits.
ANSWERED_DIGITS = (1, 2, 3, 4, 6, 9, 14, 20, 30, 45, 70, 100, 150, 250, 400,
                   650, 1000, 1600, 2500, 4300)
LONG_DIGITS = (4301, 6000, 8000, 10000)
INT_STR_LIMIT = 4300

#: expand-mix, fixed (target, index, order, format) entries.  Each finishes
#: within a few seconds on the parent commit; the sizes never shrink.
EXPAND_MIX = (
    ("pnt", None, 250000, "tsv"),
    ("pnt", None, 250000, "json"),
    ("q2inf", None, 5000, "tsv"),
    ("q3inf", None, 5000, "json"),
    ("q3inf", None, 7000, "tsv"),
    ("poch", 300, 45150, "tsv"),
    ("poch", 150, 11325, "json"),
    ("poch", 120, 2000, "tsv"),
    ("f", 1, 4000, "tsv"),
    ("f", 3, 4000, "json"),
    ("f", 8, 5000, "tsv"),
)

#: classify-verify: each table runs with --workers 1 and again with 2.
TABLES = (("S", 4, "tsv"), ("S", 6, "json"), ("Shat", 8, "tsv"), ("Shat", 12, "json"))
SUITES = ("identities", "oracle", "corrections", "windows", "conjecture")
WORKER_COUNTS = (1, 2)


@dataclass
class Command:
    """One CLI invocation.  args are the positional words; fmt and workers
    become flags.  timed=False keeps a command out of the latency metrics;
    twin names an earlier command whose output must be byte-identical;
    j ties the six queries of one coeff triple together."""

    args: list
    fmt: str = "tsv"
    workers: int = 1
    kind: str = ""
    timed: bool = True
    twin: int = -1
    j: str = ""

    def argv(self) -> list:
        out = list(self.args)
        if self.fmt != "tsv":
            out += ["--format", self.fmt]
        if self.workers != 1:
            out += ["--workers", str(self.workers)]
        return out


def _index(rng: random.Random, digits: int) -> str:
    """A numeral of exactly `digits` digits.  The leading digit 2..8 keeps the
    block bounds below 10^digits, and the last digit 2..9 lets j-1 and j-2
    be written by changing that digit alone."""
    if digits == 1:
        return str(rng.randint(2, 8))
    middle = "".join(rng.choice("0123456789") for _ in range(digits - 2))
    return str(rng.randint(2, 8)) + middle + str(rng.randint(2, 9))


def _minus(numeral: str, k: int) -> str:
    return numeral[:-1] + str(int(numeral[-1]) - k)


def coeff_query(seed: int) -> list:
    rng = random.Random(seed)
    lengths = list(ANSWERED_DIGITS + LONG_DIGITS)
    rng.shuffle(lengths)
    commands = []
    for digits in lengths:
        j = _index(rng, digits)
        answered = digits <= INT_STR_LIMIT
        for which in "ab":
            for back in range(3):
                fmt = "json" if (back + (which == "b")) % 2 else "tsv"
                commands.append(Command(
                    args=["coeff", which, _minus(j, back)], fmt=fmt,
                    kind="coeff" if answered else "coeff-long",
                    timed=answered, j=j))
    return commands


def expand_mix(seed: int) -> list:
    rng = random.Random(seed)
    commands = []
    for target, index, order, fmt in EXPAND_MIX:
        args = ["expand", target] + ([str(index)] if index is not None else []) + [str(order)]
        kind = "expand qinf" if target in ("q2inf", "q3inf") else f"expand {target}"
        commands.append(Command(args=args, fmt=fmt, kind=kind))
    rng.shuffle(commands)
    return commands


def classify_verify(seed: int) -> list:
    rng = random.Random(seed)
    units = [[Command(args=["table", kind, str(limit)], fmt=fmt, workers=w,
                      kind=f"table {kind}") for w in WORKER_COUNTS]
             for kind, limit, fmt in TABLES]
    units += [[Command(args=["verify", suite], kind=f"verify {suite}")] for suite in SUITES]
    rng.shuffle(units)
    commands = []
    for unit in units:
        first = len(commands)
        for i, cmd in enumerate(unit):
            if i:
                cmd.twin = first
            commands.append(cmd)
    return commands


WORKLOADS = {
    "coeff-query": coeff_query,
    "expand-mix": expand_mix,
    "classify-verify": classify_verify,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
