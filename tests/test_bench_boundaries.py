"""Every function the benchmark tracer patches still exists in the package.

perfbench/layers.py names each traced boundary as module + attribute.  A
renamed or deleted engine private would otherwise only surface when the
benchmark runs with --trace 1; here it fails with the rest of the suite.
The same holds for the names and keywords the workloads call in the
package and its front end, for the work counts the tracer reads off the
traced results, for the layers each workload requires to record calls, and
for the configs every workload parses when it is built.  The benchmark
modules are imported, never changed.
"""

import ast
import importlib
import inspect
import os
import sys

import numpy as np
import pytest

import casimir_lens
from casimir_lens import cli, engine, oscillator

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _bench(name: str):
    """A module of the benchmark, imported from its directory."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


def _boundaries():
    return _bench("layers").BOUNDARIES


def test_traced_boundaries_resolve_to_callables():
    boundaries = _boundaries()
    assert boundaries
    missing = [f"{b.module}.{b.attr}" for b in boundaries
               if not callable(getattr(importlib.import_module(b.module),
                                       b.attr, None))]
    assert missing == []


def test_run_command_accepts_the_threads_keyword_the_benchmark_passes():
    # perfbench/workloads.py calls cli.run_command(cfg, threads=...)
    inspect.signature(cli.run_command).bind(None, threads=2)


def test_workload_names_resolve_on_the_package():
    # perfbench/workloads.py imports the package as cl and the front end as
    # cli; every cl.<name> and cli.<name> it uses must exist
    with open(os.path.join(BENCH, "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {"cl": casimir_lens, "cli": cli}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("cl", "parse_config") in used and ("cli", "run_command") in used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(modules[mod], attr))
    assert missing == []


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_builds(seed):
    # building a workload parses each of its configs through parse_config,
    # so a config-schema change that would break the benchmark fails here
    workloads = _bench("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.make(name, seed).name == name


# per seed-0 table: (T = 0 integrals, gradients the linear shift takes).
# A T sweep's rows share one T = 0 companion and an Az sweep's rows one
# linear shift; force-sweep's 32 rows have 32 separations
_TABLE_WORK = {"cryo-sweep": (1, 0), "force-sweep": (32, 0),
               "freq-shift": (2, 2)}


@pytest.mark.parametrize("name", _TABLE_WORK)
def test_each_bench_table_computes_each_value_once(name, monkeypatch):
    counts = {}
    for module, attr in ((engine, "_zeta_integral"), (oscillator, "gradient")):
        fn = getattr(module, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    outputs = _bench("workloads").make(name, 0).table()
    assert [out.failure for out in outputs] == [None] * len(outputs)
    assert (counts.get("_zeta_integral", 0),
            counts.get("gradient", 0)) == _TABLE_WORK[name]


# per seed-0 table: (frequencies, calls) of engine._frequency_integral
_TABLE_TERMS = {"force-sweep": (976, 53), "cryo-sweep": (840, 12),
                "freq-shift": (527, 11), "oracle-check": (2419, 56)}


@pytest.mark.parametrize("name", _TABLE_TERMS)
def test_each_bench_table_evaluates_at_most_its_terms(name, monkeypatch):
    # a term evaluated past a sum's stop, or a stack split into more calls,
    # shows up here as a count, without timing anything
    work = [0, 0]
    frequency_integral = engine._frequency_integral

    def counted(kernel, model, zeta, *args, **kwargs):
        work[0] += np.size(zeta)
        work[1] += 1
        return frequency_integral(kernel, model, zeta, *args, **kwargs)

    monkeypatch.setattr(engine, "_frequency_integral", counted)
    outputs = _bench("workloads").make(name, 0).table()
    assert [out for out in outputs
            if isinstance(out, str) or getattr(out, "failure", None)] == []
    frequencies, calls = _TABLE_TERMS[name]
    assert work[0] <= frequencies and work[1] <= calls


_FORCE_300K = """\
[run]
command = force

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = drude

[environment]
a = 200e-9
T = 300
"""
_SHIFT = (_FORCE_300K.replace("command = force", "command = freq-shift")
          + "\n[oscillator]\nomega0 = 4400.0\nC = 10.0\nAz = 100e-9\n")


def test_traced_evaluations_record_work_and_required_layers():
    # a 300 K force and a nonlinear shift through the front end, as the
    # CLI workloads run them; a T = 0 force and the two oracles through the
    # library, as oracle-check runs them
    spans = _bench("spans")
    required = {name for wl in _bench("workloads").WORKLOADS.values()
                for name in wl.required}
    lens = casimir_lens.symmetric_lens(100e-6, 100e-6, 1e-3)
    env = casimir_lens.Environment(a=200e-9, T=300.0)
    model = casimir_lens.gold_drude()
    osc = casimir_lens.OscillatorParams(omega0=4400.0, C=10.0, Az=100e-9)

    def run_cli(text):
        cfg = casimir_lens.parse_config(text, origin="inline")
        columns, rows, failure = cli.run_command(cfg)
        assert failure is None
        cli.format_csv(cfg, columns, rows)

    evaluations = {
        "force_300K": lambda: run_cli(_FORCE_300K),
        "force_T0": lambda: casimir_lens.zero_temperature_force(lens, env,
                                                                model),
        "shift": lambda: run_cli(_SHIFT),
        "oracles": lambda: (
            casimir_lens.direct_pfa_force_oracle(
                lens, casimir_lens.Environment(a=1e-6, T=300.0), model),
            casimir_lens.frequency_shift_direct_oracle(lens, env, model, osc)),
    }
    tracer = spans.Tracer(_boundaries())
    work, results = {}, {}
    with tracer:
        for name, evaluate in evaluations.items():
            first = len(tracer.spans)
            results[name] = evaluate()
            work[name] = {}
            for span in tracer.spans[first:]:
                work[name].setdefault(span.name, []).append(span.work)
    # the 300 K row carries its T = 0 companion
    assert work["force_300K"]["engine.finite_t"] == [63]
    assert work["force_300K"]["engine.zero_t"] == [76]
    assert work["force_T0"]["engine.zero_t"] == [76]
    assert "engine.finite_t" not in work["force_T0"]
    # perfbench reads engine.oracle's work from _oracle_sum's terms_used
    oracle = results["oracles"][0]
    assert work["oracles"]["engine.oracle"] == [oracle.terms_used]
    spans.require_calls(spans.layer_stats(tracer.spans), sorted(required),
                        "tier-1 trace")
