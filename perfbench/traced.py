"""Traced replay of one benchmark workload, for the per-layer metrics.

Usage: python3 perfbench/traced.py SPAWNED_AT SPEC_JSON RESULT_JSON

SPAWNED_AT is accepted for symmetry with child.py and not used.

The spans are recorded here, in the benchmark's own files, around calls
into the public functions of each trigcrystal module; nothing inside
``src/`` is instrumented.  The replay has two parts:

1. The workload's CLI calls run through ``trigcrystal.cli.main`` while the
   public functions the CLI calls (ensemble, analytic, asymptotics, svgplot)
   are wrapped in spans, so each span's parent is the ``cli.main`` span.
   This part runs first, before the serial pass below fills the root
   finder's grid cache, so its ``cli.main`` time is comparable with an
   untraced run and the difference is the tracing overhead.
2. For a Monte Carlo workload, a serial pass over every realization times
   ``poly.sample``, ``poly.derivative_rescaled`` and
   ``roots.real_roots_sampled`` one call at a time.  It checks that each
   real count is even and at most 2N, and sends every k-th realization to
   ``roots.all_roots_companion``: the counts must match and the worst
   position gap must be below 1e-8.

Spans are kept in memory as [name, start, end, parent, run_id] and
written with the counters when the replay ends.
"""

import functools
import json
import math
import sys
import time

from child import run_calls

ORACLE_GAP = 1e-8


class Tracer:
    """In-memory spans; a span's parent is the innermost open span."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def start(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, module, attr, layer):
        """Replace module.attr by a version that records a span per call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(f"{layer}.{attr}", fn, *args, **kwargs)

        setattr(module, attr, traced)


def replay_cli(tracer, calls, counts):
    from trigcrystal import analytic, asymptotics, cli, ensemble, svgplot

    layers = {
        "ensemble": (ensemble, ("real_zero_ensemble", "empirical_pair_correlation",
                                "nearest_neighbor_spacings")),
        "analytic": (analytic, ("pair_correlation_limit_curve", "expected_real_fraction")),
        "asymptotics": (asymptotics, ("nn_density", "new_real_fraction", "theorem_profile")),
        "svgplot": (svgplot, ("render",)),
    }
    for layer, (module, attrs) in layers.items():
        for attr in attrs:
            tracer.wrap(module, attr, layer)

    # counters read from arguments and results, outside the spans
    pair_correlation = ensemble.empirical_pair_correlation
    spacings = ensemble.nearest_neighbor_spacings
    curve = analytic.pair_correlation_limit_curve

    def counted_pairs(rootsets, *args, **kwargs):
        est = pair_correlation(rootsets, *args, **kwargs)
        counts["ordered_pairs"] += est.metadata["ordered_pairs"]
        return est

    def counted_spacings(rootsets, *args, **kwargs):
        counts["gaps"] += sum(len(r) for r in rootsets if len(r) >= 2)
        return spacings(rootsets, *args, **kwargs)

    def counted_curve(p, xs):
        counts["curve_points"] += len(xs)
        return curve(p, xs)

    ensemble.empirical_pair_correlation = counted_pairs
    ensemble.nearest_neighbor_spacings = counted_spacings
    analytic.pair_correlation_limit_curve = counted_curve

    def traced_main(argv):
        return tracer.call("cli.main", cli.main, argv)

    return run_calls(traced_main, calls), cli.__file__


def serial_pass(tracer, mc, counts, failures):
    from trigcrystal import poly, roots

    N, p, M = mc["N"], mc["p"], mc["realizations"]
    spec = poly.EnsembleSpec.equal_variance(N, p, M, mc["seed"])
    for i in range(M):
        f = tracer.call("poly.sample", poly.sample, spec, i)
        if p > 0:  # the ensemble differentiates only for p > 0
            f = tracer.call("poly.derivative_rescaled", poly.derivative_rescaled, f, p)
        rs = tracer.call("roots.real_roots_sampled", roots.real_roots_sampled, f)
        k = rs.real_count
        counts["roots"] += k
        problems = []
        if k % 2 or k > 2 * N:
            counts["count_violations"] += 1
            problems.append(f"real count {k} is odd or above 2N={2 * N}")
        if i % mc["oracle_every"] == 0:
            oracle = tracer.call("roots.all_roots_companion", roots.all_roots_companion, f)
            counts["oracle_checked"] += 1
            gap = 0.0
            if oracle.real_count == k and k:
                d = abs(rs.real_roots - oracle.real_roots)
                gap = float(max(min(x, 2.0 * math.pi - x) for x in d))
            if oracle.real_count != k or not gap < ORACLE_GAP:
                counts["oracle_mismatch"] += 1
                problems.append(f"oracle: {oracle.real_count} real roots against {k}, "
                                f"worst position gap {gap:.3e}")
            counts["oracle_worst_gap"] = max(counts["oracle_worst_gap"], gap)
        if problems:
            failures.append(f"realization {i}: " + "; ".join(problems))


def main():
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"])
    counts = {k: 0 for k in ("ordered_pairs", "gaps", "curve_points", "roots",
                             "count_violations", "oracle_checked", "oracle_mismatch",
                             "oracle_worst_gap")}
    failures = []
    calls, module_file = replay_cli(tracer, spec["calls"], counts)
    if spec["mc"]:
        serial_pass(tracer, spec["mc"], counts, failures)
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "module_file": module_file, "spans": tracer.spans,
                   "counts": counts, "realization_failures": failures}, fh)


if __name__ == "__main__":
    main()
