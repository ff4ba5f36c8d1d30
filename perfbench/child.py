"""Run one ringnet CLI command in this fresh process and time it.

Usage: python3 child.py SRC_DIR RESULT_JSON OUTPUT_FILE TRACE_NPZ|- -- [CLI_ARGS...]

The thread pools of BLAS and OpenMP must already be pinned through the
environment, since they read it when numpy loads.  The import of
``ringnet.cli`` is timed on its own (``import_s``); the command is timed
from the call of ``ringnet.cli.main`` to its return (``wall_s``), with the
command's standard output going to OUTPUT_FILE.  With a TRACE_NPZ path the
layers are traced (see tracing.py) and the spans are written there after the
command returns.  The timings and the exit code go to RESULT_JSON.  With
no CLI_ARGS the process only imports ``ringnet.cli`` and reports import_s.
"""

import contextlib
import json
import os
import sys
import time


def main(argv):
    src, result_path, output_path, trace_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: child.py SRC RESULT OUTPUT TRACE -- CLI_ARGS...")
    sys.path.insert(0, src)

    started = time.perf_counter()
    import ringnet.cli
    import_s = time.perf_counter() - started
    if not os.path.abspath(ringnet.cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"ringnet was imported from {ringnet.cli.__file__}, not {src}")
    if not cli_args:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s}, handle)
        return

    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    with open(output_path, "w", encoding="utf-8") as output, \
            contextlib.redirect_stdout(output):
        started = time.perf_counter()
        code = ringnet.cli.main(cli_args)
        wall_s = time.perf_counter() - started

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "wall_s": wall_s, "exit_code": code}, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
