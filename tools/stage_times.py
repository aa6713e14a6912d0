"""Time the stages of one replication of a preset, in milliseconds.

    python3 tools/stage_times.py > stages.json
    python3 tools/stage_times.py --presets table1 table5 --lt off
    python3 tools/stage_times.py --small --presets table1

For each preset (table1 and table3-table5 unless --presets names some)
on `ladder_market()`, the tool builds the run's rotation (unless
--lt off) and path generator once, timing each, then draws replications
0, 1, ... of `standard_stream()` (2048 points; 256 under --small) into
one (points, d) buffer allocated once, the way a worker thread draws
them: it holds the uniforms, the normals, the spot grid and the jets'
weighted grid in turn. Per replication it times six stages:

- uniforms: `qmc.replication_uniforms` into the buffer;
- inverse_normal: `qmc.to_normal` in place;
- paths: `simulate_paths` over the spent normals (the product, the
  offset and exp);
- evaluate: `payoffs.evaluate`;
- basket_jets: `weights.basket_jets` over the evaluated spot grid;
- weights: the payoff family's weight.

The first replication warms the buffers up and is not counted; the
tool prints, as JSON, the median milliseconds of each stage and of
their sum (`replication`) over the next 9 (3 under --small), plus
the once-per-call `lt_build` (null under --lt off) and `generator`
times. One more replication, untimed, runs under tracemalloc and gives
each stage's traced peak in KB (`peaks_kb`): the most the replication
held at once during that stage, counting what earlier stages left
alive but not the buffer, which was allocated before tracing
began. Run as a script it pins OPENBLAS_NUM_THREADS=1
before numpy loads, so the numbers read one thread's work.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from qmcgreeks import qmc  # noqa: E402
from qmcgreeks import weights as wt  # noqa: E402
from qmcgreeks.lt import build_lt_matrix  # noqa: E402
from qmcgreeks.market import path_generator, simulate_paths, vol_loadings  # noqa: E402
from qmcgreeks.payoffs import evaluate  # noqa: E402
from qmcgreeks.presets import PRESETS, ladder_market, preset, standard_stream  # noqa: E402

STAGES = ("uniforms", "inverse_normal", "paths", "evaluate", "basket_jets", "weights")


def _timed(fn, *args, **kwargs):
    """(fn's result, its wall milliseconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, 1e3 * (time.perf_counter() - start)


def _traced(fn, *args, **kwargs):
    """(fn's result, the traced peak in KB while it ran); tracemalloc
    must be tracing."""
    tracemalloc.reset_peak()
    result = fn(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] / 1024.0


def stage_times(name: str, use_lt: bool, points: int, repeats: int) -> dict:
    """Median stage milliseconds of `repeats` replications of preset
    `name`, after one uncounted warm-up replication, the once-per-call
    build times, and each stage's traced peak in one more replication."""
    config, spec = ladder_market(), preset(name)
    stream = standard_stream(points=points, replications=repeats + 2)
    d = config.nominal_dimension
    lt_build, lt_ms = _timed(build_lt_matrix, config, spec) if use_lt else (None, None)
    generator, generator_ms = _timed(path_generator, config, vol_loadings(config),
                                     None if lt_build is None else lt_build.matrix)
    weight_matrix = spec.weight_matrix(config.n_assets, config.n_dates)
    draws = np.empty((points, d))

    def replication(measure, index: int) -> tuple:
        """Each stage's measure in replication `index`."""
        unit, uniforms = measure(qmc.replication_uniforms, stream, index, d, out=draws)
        normals, inverse = measure(qmc.to_normal, unit, out=unit)
        bundle, paths = measure(simulate_paths, config, generator, normals, out=normals)
        _, evaluating = measure(evaluate, spec, config, bundle)
        jets, jetting = measure(wt.basket_jets, config, generator.loadings, weight_matrix,
                                bundle, normals)
        _, weighting = measure(spec.family.weights, config, jets, bundle)
        return uniforms, inverse, paths, evaluating, jetting, weighting

    counted = [replication(_timed, index) for index in range(repeats + 1)][1:]
    stages = {stage: statistics.median(lap[k] for lap in counted)
              for k, stage in enumerate(STAGES)}
    stages["replication"] = statistics.median(sum(lap) for lap in counted)
    tracemalloc.start()
    try:
        peaks = replication(_traced, repeats + 1)
    finally:
        tracemalloc.stop()
    return {"stages_ms": stages, "once_ms": {"lt_build": lt_ms, "generator": generator_ms},
            "peaks_kb": dict(zip(STAGES, peaks))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", choices=PRESETS, default=PRESETS)
    parser.add_argument("--lt", choices=("on", "off"), default="on",
                        help="build the preset's rotation (default) or draw unrotated")
    parser.add_argument("--small", action="store_true",
                        help="256 points per replication instead of 2048, for wiring checks")
    args = parser.parse_args(argv)
    points, repeats = (256, 3) if args.small else (2048, 9)
    result = {"lt": args.lt, "points": points, "repeats": repeats,
              "presets": {name: stage_times(name, args.lt == "on", points, repeats)
                          for name in args.presets}}
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
