"""The traced boundaries of casimir_lens and the per-layer metrics they give.

Layer names follow the modules.  Each boundary is a function the layer's
callers look up; the tracer patches it at every binding in the package.
"""

import numpy as np

from spans import Boundary, LayerStats, child_calls

BOUNDARIES = (
    Boundary("specfun.polylog", "casimir_lens.specfun", "polylog_exp_grid",
             work=np.size),
    Boundary("specfun.bessel", "casimir_lens.specfun", "bessel_i1_scaled",
             work=np.size),
    Boundary("materials.reflection", "casimir_lens.materials",
             "reflection_sq_grid"),
    Boundary("engine.finite_t", "casimir_lens.engine", "_finite_t",
             work=lambda res: res.terms_used),
    Boundary("engine.zero_t", "casimir_lens.engine", "_zeta_integral",
             work=lambda res: res[1]),
    Boundary("engine.oracle", "casimir_lens.engine", "_oracle_sum",
             work=lambda res: res[1]),
    Boundary("engine.entry", "casimir_lens.engine", "casimir_force"),
    Boundary("engine.entry", "casimir_lens.engine", "casimir_gradient"),
    Boundary("engine.entry", "casimir_lens.engine", "zero_temperature_force"),
    Boundary("engine.entry", "casimir_lens.engine", "zero_temperature_gradient"),
    Boundary("oscillator.nonlinear", "casimir_lens.oscillator",
             "_shift_nonlinear_any"),
    Boundary("oscillator.direct_oracle", "casimir_lens.oscillator",
             "frequency_shift_direct_oracle"),
    Boundary("config.parse", "casimir_lens.config", "parse_config"),
    Boundary("cli.run_command", "casimir_lens.cli", "run_command"),
    Boundary("cli.format", "casimir_lens.cli", "format_csv"),
)

# (metric, unit, better); every traced run prints all of them.
PER_LAYER = (
    ("specfun.polylog.calls", "count", "lower"),
    ("specfun.polylog.nodes", "count", "lower"),
    ("specfun.polylog.self_s", "s", "lower"),
    ("specfun.polylog.ns_per_node", "ns", "lower"),
    ("specfun.bessel.calls", "count", "lower"),
    ("specfun.bessel.elements", "count", "lower"),
    ("specfun.bessel.self_s", "s", "lower"),
    ("specfun.bessel.ns_per_element", "ns", "lower"),
    ("materials.reflection.calls", "count", "lower"),
    ("materials.reflection.self_s", "s", "lower"),
    ("engine.matsubara.terms", "count", "lower"),
    ("engine.finite_t.self_s", "s", "lower"),
    ("engine.zeta.nodes", "count", "lower"),
    ("engine.zero_t.self_s", "s", "lower"),
    ("engine.oracle.self_s", "s", "lower"),
    ("engine.oracle.terms", "count", "lower"),
    ("oscillator.nonlinear.self_s", "s", "lower"),
    ("oscillator.direct_oracle.force_calls", "count", "lower"),
    ("config.parse_s", "s", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("cli.format_s", "s", "lower"),
    ("cli.threads2_speedup", "ratio", "higher"),
    ("accuracy.err_ratio_max", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ns_per(self_s: float, count: int) -> float:
    return 1e9 * self_s / count if count else 0.0


def span_metrics(st: dict, spans: list, passes: int) -> dict:
    """Per-layer values from the spans of `passes` traced table passes.

    `st` is layer_stats(spans).  Counts and seconds are per pass, so they
    compare with one table_s; every pass does the same work, so the counts
    divide exactly.
    """
    none = LayerStats()

    def calls(name):
        return st.get(name, none).calls // passes

    def work(name):
        return st.get(name, none).work // passes

    def self_s(name):
        return st.get(name, none).self_s / passes

    def total_s(name):
        return st.get(name, none).total_s / passes

    return {
        "specfun.polylog.calls": calls("specfun.polylog"),
        "specfun.polylog.nodes": work("specfun.polylog"),
        "specfun.polylog.self_s": self_s("specfun.polylog"),
        "specfun.polylog.ns_per_node": _ns_per(self_s("specfun.polylog"),
                                               work("specfun.polylog")),
        "specfun.bessel.calls": calls("specfun.bessel"),
        "specfun.bessel.elements": work("specfun.bessel"),
        "specfun.bessel.self_s": self_s("specfun.bessel"),
        "specfun.bessel.ns_per_element": _ns_per(self_s("specfun.bessel"),
                                                 work("specfun.bessel")),
        "materials.reflection.calls": calls("materials.reflection"),
        "materials.reflection.self_s": self_s("materials.reflection"),
        "engine.matsubara.terms": work("engine.finite_t"),
        "engine.finite_t.self_s": self_s("engine.finite_t"),
        "engine.zeta.nodes": work("engine.zero_t"),
        "engine.zero_t.self_s": self_s("engine.zero_t"),
        "engine.oracle.self_s": self_s("engine.oracle"),
        "engine.oracle.terms": work("engine.oracle"),
        "oscillator.nonlinear.self_s": self_s("oscillator.nonlinear"),
        "oscillator.direct_oracle.force_calls":
            child_calls(spans, "oscillator.direct_oracle", "engine.entry") // passes,
        "config.parse_s": total_s("config.parse"),
        "cli.run_command.self_s": self_s("cli.run_command"),
        "cli.format_s": total_s("cli.format"),
    }


def split_checks(workload: str, st: dict, metrics: dict) -> list:
    """The predicted split each workload was chosen for, as (claim, held)."""
    largest = max(st, key=lambda name: st[name].self_s)
    out = []
    if workload != "freq-shift":
        out.append(("specfun.bessel.calls == 0",
                    metrics["specfun.bessel.calls"] == 0))
    if workload != "oracle-check":
        out.append(("engine.oracle.self_s == 0",
                    metrics["engine.oracle.self_s"] == 0.0))
    if workload == "force-sweep":
        out.append(("engine.zeta.nodes > engine.matsubara.terms",
                    metrics["engine.zeta.nodes"] > metrics["engine.matsubara.terms"]))
    if workload == "cryo-sweep":
        out.append(("engine.matsubara.terms > engine.zeta.nodes",
                    metrics["engine.matsubara.terms"] > metrics["engine.zeta.nodes"]))
    if workload in ("force-sweep", "cryo-sweep"):
        out.append((f"largest self time is specfun.polylog (got {largest})",
                    largest == "specfun.polylog"))
    if workload == "freq-shift":
        out.append((f"largest self time is specfun.bessel (got {largest})",
                    largest == "specfun.bessel"))
    return out
