"""Record the reference outputs the benchmark checks its commands against.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

Runs every workload's command in this process, once per seed of the seed
pool, on the ringnet found in ``src/``, and writes
``perfbench/reference.json``:

* ``validate``: sha256 of the mc-validate report, per pool seed;
* ``curves``: sha256 of the mc rows per pool seed, and the analytic rows
  (k, b, mode, value, stated error), which do not depend on the seed;
* ``sweep``: per output column, rows of (phi, value, tail bound), the bound
  being the one the closed-form sums carry for the sweep-phi defaults.

The file in the repository was recorded from the code as it stood when the
benchmark was defined.  Re-record only when a change deliberately alters
these outputs, and say so where the change is described.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ringnet.cli  # noqa: E402
from ringnet import fourier  # noqa: E402

from workloads import SEED_POOL, WORKLOADS, csv_blocks, pool_key  # noqa: E402

# sweep-phi defaults the bounds are computed for
SWEEP_HEIGHT = 0.1
SWEEP_TAIL_TERMS = 200_000


def run(workload, seed, directory):
    config = workload.config(seed)
    path = None
    if config is not None:
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = ringnet.cli.main(workload.cli_args(path))
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed} exited with {code}")
    return output.getvalue()


def sweep_reference(text):
    reference = {}
    for column, rows in WORKLOADS["sweep"].columns(text).items():
        entries = []
        for phi, value in rows:
            width = float(phi)
            if column == "clustering_over_p":
                estimate = fourier.clustering_uniform(SWEEP_HEIGHT, width,
                                                      tail_terms=SWEEP_TAIL_TERMS)
                bound = estimate.error_bound / SWEEP_HEIGHT
            else:
                order = int(column.removeprefix("ptilde_k"))
                result = fourier.antipodal_chain_count_uniform(
                    SWEEP_HEIGHT, width, 2.0 * SWEEP_HEIGHT * width, order,
                    tail_terms=SWEEP_TAIL_TERMS)
                bound = result.normalized.error_bound
            entries.append([phi, value, bound])
        reference[column] = entries
    return reference


def main():
    reference = {"validate": {}, "curves": {"mc": {}}, "sweep": {}}
    curves = WORKLOADS["curves"]
    with tempfile.TemporaryDirectory() as directory:
        for seed in range(SEED_POOL):
            text = run(WORKLOADS["validate"], seed, directory)
            problems = [line for line in text.splitlines() if line.startswith("FAIL")]
            if problems:
                raise SystemExit(f"validate seed {seed} fails: {problems}")
            reference["validate"][pool_key(seed)] = WORKLOADS["validate"].digest(text)
            rows = csv_blocks(run(curves, seed, directory))[0]
            reference["curves"]["mc"][pool_key(seed)] = curves.mc_digest(rows)
            analytic = curves.analytic_rows(rows)
            if reference["curves"].setdefault("analytic", analytic) != analytic:
                raise SystemExit(f"curves seed {seed}: analytic rows depend on the seed")
            print(f"seed {seed} recorded", file=sys.stderr)
        reference["sweep"] = sweep_reference(run(WORKLOADS["sweep"], 0, directory))
    text = json.dumps(reference, indent=1)
    # one output row per line: collapse the innermost lists
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


if __name__ == "__main__":
    main()
