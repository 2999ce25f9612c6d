"""Every function the benchmark tracer patches still exists in the package.

perfbench/layers.py names each traced boundary as module + attribute.  A
renamed or deleted engine private would otherwise only surface when the
benchmark runs with --trace 1; here it fails with the rest of the suite.
The same holds for the names and keywords the workloads call in the
package and its front end.
"""

import ast
import importlib
import inspect
import os
import sys

import casimir_lens
from casimir_lens import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _boundaries():
    sys.path.insert(0, BENCH)
    try:
        from layers import BOUNDARIES
    finally:
        sys.path.remove(BENCH)
    return BOUNDARIES


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
