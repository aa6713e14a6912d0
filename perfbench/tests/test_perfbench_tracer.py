"""The tracer on the real package, at smoke size."""
import pytest

import bench
from spans import Tracer, layer_metrics


def _bindings(package):
    """Every attribute of every qmcgreeks module, plus the scramble."""
    import sys
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if module is not None and name.startswith(package.__name__)}
    return modules, package.qmc.DigitalScramble.__dict__["apply"]


def _same_bindings(before, after):
    return (before[1] is after[1] and before[0].keys() == after[0].keys()
            and all(before[0][name].keys() == after[0][name].keys()
                    and all(before[0][name][key] is after[0][name][key]
                            for key in before[0][name])
                    for name in before[0]))


def _bits(reports):
    return [(r.deltas.tobytes(), r.stderrs.tobytes(), r.replication_means.tobytes())
            for r in reports]


@pytest.fixture(scope="module")
def contexts():
    return {name: bench.set_up(workload, 42, smoke=True)
            for name, workload in bench.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_pass_is_bit_identical_and_restores_bindings(contexts, name):
    ctx = contexts[name]
    package = ctx.package
    before = _bindings(package)
    _, plain = bench.run_pass(ctx)
    with Tracer(package) as tracer:
        # every import site sees the wrapper, not only the defining module
        assert package.estimator.simulate_paths is package.market.simulate_paths
        assert package.lt.simulate_paths is package.market.simulate_paths
        assert hasattr(package.market.simulate_paths, "__wrapped__")
        wall, traced = bench.run_pass(ctx)
    assert _same_bindings(before, _bindings(package))
    assert _bits(traced) == _bits(plain)

    metrics = layer_metrics(tracer.spans, bench.workers_for(ctx.workload), wall)
    assert metrics["qmc.draws"] == (len(ctx.specs) * ctx.stream.replications
                                    * ctx.stream.points_per_replication * 640
                                    + metrics["estimator.pilot_paths"] * 640)
    if ctx.workload.method == "fd":
        assert metrics["estimator.pilot_s"] == 0.0
        assert metrics["estimator.pilot_paths"] == 0
        assert metrics["weights.calls"] == 0
    else:
        assert metrics["estimator.pilot_s"] > 0.0
        assert metrics["estimator.pilot_paths"] == ctx.stream.points_per_replication
        assert metrics["weights.calls"] > 0


def test_bindings_are_restored_when_the_body_raises(contexts):
    package = contexts["asian_call"].package
    before = _bindings(package)
    with pytest.raises(RuntimeError):
        with Tracer(package):
            raise RuntimeError("stop")
    assert _same_bindings(before, _bindings(package))


def test_gate_accepts_the_reference_band_and_rejects_outside_it():
    reference = {"deltas": [0.5, 0.25], "stderrs": [0.03, 0.04]}
    assert bench.gate({"deltas": [0.5, 0.25], "stderrs": [0.04, 0.03]}, reference) is None
    assert bench.gate({"deltas": [0.5, 0.49], "stderrs": [0.04, 0.03]}, reference) is None
    assert "component 2" in bench.gate({"deltas": [0.5, 0.51], "stderrs": [0.04, 0.03]},
                                       reference)
    assert bench.gate({"deltas": [0.5], "stderrs": [0.1]}, None) == "no reference recorded"
