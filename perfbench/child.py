"""One measured invocation of the crystallize CLI in a fresh interpreter.

Usage: python3 perfbench/child.py SPAWNED_AT SPEC_JSON RESULT_JSON

SPAWNED_AT is the parent's time.monotonic() taken just before it started
this process.  That clock is system-wide on Linux, so the time from there
until ``trigcrystal.cli`` is imported is the set-up a user pays on every
run.  SPEC_JSON holds {"calls": [argument lists]}; each is passed to
``trigcrystal.cli.main`` in turn and timed.  With an empty list the child
only imports the CLI and records the run-time facts (library versions,
BLAS, multiprocessing start method), which is how the parent warms the
byte-code and page caches before measuring.
"""

import json
import sys
import time
import traceback


def run_calls(main, calls):
    """Run each argument list through ``main``; return exit codes and seconds."""
    results = []
    for argv in calls:
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails this call's check; the run goes on
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "s": time.perf_counter() - t0})
    return results


def runtime_facts():
    """Versions and settings of the interpreter the CLI runs in."""
    import multiprocessing
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
    }


def main():
    spawned_at = float(sys.argv[1])
    import trigcrystal.cli

    setup_s = time.monotonic() - spawned_at
    with open(sys.argv[2], encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]
    result = {
        "setup_s": setup_s,
        "module_file": trigcrystal.cli.__file__,
        "calls": run_calls(trigcrystal.cli.main, calls),
    }
    if not calls:
        result["facts"] = runtime_facts()
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
