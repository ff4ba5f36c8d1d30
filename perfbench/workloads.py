"""The benchmark's workloads: one ringnet CLI command each, and its checks.

A workload turns the benchmark seed into the command's configuration and
checks the command's output against reference outputs recorded from the
code as it was when the benchmark was defined (``reference.json``, written
by ``record_reference.py``).

Seeds.  The benchmark seed ``s`` selects the Monte Carlo master seed
``BASE_SEED + s % SEED_POOL``, so every seed maps onto one of the
``SEED_POOL`` seeds whose reference outputs are on record.  Seed 0 is the
default (it gives ``BASE_SEED``, the CLI's own default seed); seed 1 is the
second seed on which any claimed gain must also hold.  ``sweep`` draws no
random numbers and ignores the seed.

The pool holds only these two because the battery's Monte Carlo checks
allow 3.5 standard errors estimated from few trials: with the clustering
check's 2 trials (or 4) some master seeds fail it, for example
``BASE_SEED + 2`` at 1/8 and ``BASE_SEED + 6`` at 1/4 of the default
trials, and a benchmark command must not fail on correct code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

BASE_SEED = 20260822
SEED_POOL = 2
DEFAULT_SEED = 0
HOLDOUT_SEED = 1

# the default battery's trial counts divided by eight, so that one command
# takes a few seconds and a run can repeat it; every check and its seed stay
VALIDATE_TRIALS = {"mean_degree": 19, "clustering": 2, "chain": 750,
                   "direct_link": 312}

CURVE_MODES = ["leading", "full", "quadrature", "mc"]
CURVE_ORDERS = [1, 2]
CURVE_GAP_POINTS = 97
CURVE_TRIALS = 40

# relative float slack on top of a stated error bound, scaled by the largest
# magnitude in the same column: a different summation order moves the last
# digits, never the ninth
FLOAT_SLACK = 1e-9


def mc_seed(seed: int) -> int:
    return BASE_SEED + seed % SEED_POOL


def pool_key(seed: int) -> str:
    return str(seed % SEED_POOL)


class Workload:
    """A CLI command, its configuration from the seed, and its output check."""

    name = ""

    def config(self, seed: int) -> dict | None:
        """The JSON configuration the command reads, or None for none."""
        raise NotImplementedError

    def cli_args(self, config_path: str | None) -> list[str]:
        raise NotImplementedError

    def check(self, text: str, exit_code: int, reference: dict, seed: int) -> list[str]:
        """Problems found in one command's output; empty when correct."""
        raise NotImplementedError


class Validate(Workload):
    """mc-validate, all 14 checks at 1/8 of the default trials: Monte Carlo
    sampling and per-sample measuring dominate."""

    name = "validate"

    def config(self, seed):
        return {"mc": {"seed": mc_seed(seed)},
                "computation": {"battery_trials": dict(VALIDATE_TRIALS)}}

    def cli_args(self, config_path):
        return ["mc-validate", "--config", config_path, "--threads", "1"]

    @staticmethod
    def digest(text) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def check(self, text, exit_code, reference, seed):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        failed = [line for line in text.splitlines() if line.startswith("FAIL")]
        problems.extend(f"failing check: {line}" for line in failed)
        digest = self.digest(text)
        expected = reference["validate"][pool_key(seed)]
        if digest != expected:
            problems.append(f"report sha256 {digest} differs from the reference {expected}")
        return problems


def csv_blocks(text: str) -> list[list[dict]]:
    """Rows of each CSV block in a ringnet output, keyed by column name."""
    blocks = []
    for chunk in text.split("\n\n"):
        body = "\n".join(line for line in chunk.splitlines()
                         if line and not line.startswith("#"))
        if body:
            blocks.append(list(csv.DictReader(io.StringIO(body))))
    return blocks


def _within(value: float, expected: float, allowed: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= allowed


class Curves(Workload):
    """separation in leading, full, quadrature and mc modes: nested
    quadrature, per-gap BFS sampling on fresh graphs and series tables."""

    name = "curves"

    def config(self, seed):
        return {"space": {"type": "circle", "radius": 20.0},
                "kernel": {"type": "uniform", "p": 0.1, "half_width": 0.5},
                "mc": {"trials": CURVE_TRIALS, "seed": mc_seed(seed)},
                "computation": {"modes": list(CURVE_MODES), "k_list": list(CURVE_ORDERS),
                                "gap_points": CURVE_GAP_POINTS}}

    def cli_args(self, config_path):
        return ["separation", "--config", config_path, "--threads", "1"]

    @staticmethod
    def mc_digest(rows) -> str:
        lines = [",".join(row[c] for c in ("k", "b", "value", "error_estimate", "trials"))
                 for row in rows if row["mode"] == "mc"]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    @staticmethod
    def analytic_rows(rows) -> list[list]:
        return [[int(row["k"]), row["b"], row["mode"], float(row["value"]),
                 float(row["error_estimate"])]
                for row in rows if row["mode"] != "mc"]

    def check(self, text, exit_code, reference, seed):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        blocks = csv_blocks(text)
        if len(blocks) != 1:
            return problems + [f"expected one CSV block, found {len(blocks)}"]
        rows = blocks[0]
        expected_mc = reference["curves"]["mc"][pool_key(seed)]
        if self.mc_digest(rows) != expected_mc:
            problems.append("mc rows differ from the reference")
        expected = reference["curves"]["analytic"]
        got = self.analytic_rows(rows)
        if [r[:3] for r in got] != [r[:3] for r in expected]:
            return problems + ["analytic rows are not the reference's (k, b, mode) rows"]
        scale = {}
        for k, _, mode, value, _ in expected:
            scale[k, mode] = max(scale.get((k, mode), 0.0), abs(value))
        for (k, gap, mode, value, error), (_, _, _, ref, ref_error) in zip(got, expected):
            allowed = ref_error + error + FLOAT_SLACK * scale[k, mode]
            if not _within(value, ref, allowed):
                problems.append(f"{mode} k={k} b={gap}: {value!r} is not within "
                                f"{allowed:.3e} of {ref!r}")
        return problems


class Sweep(Workload):
    """sweep-phi defaults: 64 widths of closed-form fourier tail sums, and
    no Monte Carlo or quadrature at all."""

    name = "sweep"

    def config(self, seed):
        return None

    def cli_args(self, config_path):
        return ["sweep-phi", "--threads", "1"]

    @staticmethod
    def columns(text) -> dict:
        """{column: [(phi, value)]} over both output blocks."""
        out = {}
        for rows in csv_blocks(text):
            for row in rows:
                for column, cell in row.items():
                    if column != "phi":
                        out.setdefault(column, []).append((row["phi"], float(cell)))
        return out

    def check(self, text, exit_code, reference, seed):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        got = self.columns(text)
        expected = reference["sweep"]
        if sorted(got) != sorted(expected):
            return problems + [f"columns {sorted(got)} differ from {sorted(expected)}"]
        for column, rows in expected.items():
            if [r[0] for r in got[column]] != [r[0] for r in rows]:
                problems.append(f"{column}: phi grid differs from the reference")
                continue
            scale = max(abs(r[1]) for r in rows)
            for (phi, value), (_, ref, bound) in zip(got[column], rows):
                allowed = bound + FLOAT_SLACK * scale
                if not _within(value, ref, allowed):
                    problems.append(f"{column} phi={phi}: {value!r} is not within "
                                    f"{allowed:.3e} of {ref!r}")
        return problems


WORKLOADS = {w.name: w for w in (Validate(), Sweep(), Curves())}
