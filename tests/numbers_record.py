"""One committed record of the package's numbers, and its generator.

The record (numbers_record.json, next to this file) holds value,
est_abs_error, terms_used and mode, floats as float.hex, for:

- forces and gradients: Drude, plasma, ideal metal and a 6-knot table;
  150 nm and 1 um; T = 0, 3 and 300 K; rel_tol 1e-8 and 1e-13;
- nonlinear shifts at Az/a = 0.1 - 0.999, the same four models, T = 0, 3
  and 300 K (a bare float; the tabulated shift at Az/a >= 0.99, whose window
  outruns the table, is recorded as the ValueError it raises);
- the PFA oracle at 300 K and 20 K, the rotated oracle and the shift oracle;
- each row of the seed-0 table of every benchmark workload
  (perfbench/workloads.py, imported, never changed).

A change that claims to move no number leaves the record unchanged;
tests/test_numbers_record.py regenerates it and compares.  One that moves
numbers rewrites it, from the repository root:

    PYTHONPATH=src python tests/numbers_record.py

The header names the machine, Python and numpy that wrote it.  On the same
platform the comparison is exact; elsewhere floats may differ by 4 ulp,
because the Gauss rules (numpy's leggauss) come from LAPACK's eigensolver;
the remainder's Clenshaw-Curtis rule is a closed form.
"""

import importlib
import json
import math
import os
import pathlib
import platform
import sys

import numpy as np

from casimir_lens import (Environment, IdealMetal, OscillatorParams,
                          QuadratureSpec, RotatedLens, Tabulated,
                          direct_pfa_force_oracle, force,
                          frequency_shift_direct_oracle,
                          frequency_shift_nonlinear, gold_drude, gold_plasma,
                          gradient, rotated_direct_oracle, symmetric_lens,
                          thickness_for_width)

RECORD = pathlib.Path(__file__).with_name("numbers_record.json")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
ULPS = 4  # the tolerance between platforms

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
_XI = np.geomspace(1.0e2, 1.0e18, 6)
MODELS = {
    "drude": gold_drude(),
    "plasma": gold_plasma(),
    "ideal": IdealMetal(),
    "table": Tabulated(_XI, 1.0 + 1.0e32 / (_XI * (_XI + 5.0e13))),
}
BETAS = (0.1, 0.5, 0.9, 0.99, 0.999)


def header() -> dict:
    return {"machine": f"{platform.machine()} {platform.system()}",
            "python": platform.python_version(), "numpy": np.__version__}


def _tokens(*fields) -> list:
    """Floats as float.hex, integers and strings as they are."""
    return [float.hex(float(f)) if isinstance(f, (float, np.floating))
            else int(f) if isinstance(f, (int, np.integer)) else str(f)
            for f in fields]


def _result(r) -> list:
    return _tokens(r.value, r.est_abs_error, r.terms_used, r.mode)


def _raising(fn) -> list:
    """fn's tokens, or the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return [f"ValueError: {exc}"]


def _bench(name: str):
    """A module of the benchmark, imported from its directory."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


def _forces():
    for name, model in MODELS.items():
        for kind, fn in (("force", force), ("gradient", gradient)):
            for a in (150e-9, 1e-6):
                for T in (0.0, 3.0, 300.0):
                    for rel_tol in (1e-8, 1e-13):
                        yield (f"{kind} {name} a={a:g} T={T:g} rel_tol={rel_tol:g}",
                               _result(fn(LENS, Environment(a=a, T=T), model,
                                          QuadratureSpec(rel_tol))))


def _shifts():
    a = 200e-9
    for name, model in MODELS.items():
        for T in (0.0, 3.0, 300.0):
            for beta in BETAS:
                osc = OscillatorParams(omega0=4400.0, C=10.0, Az=beta * a)
                yield (f"shift {name} a={a:g} T={T:g} Az/a={beta:g}",
                       _raising(lambda: _tokens(frequency_shift_nonlinear(
                           LENS, Environment(a=a, T=T), model, osc))))


def _oracles():
    model = gold_drude()
    for T in (300.0, 20.0):
        env = Environment(a=1e-6, T=T)
        yield (f"pfa_oracle drude a=1e-06 T={T:g}",
               _result(direct_pfa_force_oracle(LENS, env, model)))
    d = 0.9 * 150e-6
    rotated = RotatedLens(A=150e-6, B=100e-6, phi=math.pi / 4,
                          h=thickness_for_width(150e-6, 100e-6, d), d=d, L=1e-3)
    yield ("rotated_oracle drude a=2e-07 T=300",
           _result(rotated_direct_oracle(rotated, Environment(a=200e-9, T=300.0),
                                         model)))
    osc = OscillatorParams(omega0=4400.0, C=10.0, Az=0.9 * 200e-9)
    yield ("shift_oracle ideal a=2e-07 T=300 Az/a=0.9",
           _tokens(frequency_shift_direct_oracle(
               LENS, Environment(a=200e-9, T=300.0), IdealMetal(), osc)))


def _tables():
    workloads = _bench("workloads")
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0)
        outputs = workload.table()
        if hasattr(workload, "cases"):  # the oracles: one float per case
            for case, value in zip(workload.cases, outputs):
                yield f"table {name} {case}", _tokens(value)
            continue
        for label, out in zip(workload.labels, outputs):
            for i, row in enumerate(out.rows):
                yield f"table {name} {label}[{i}]", _tokens(*row)
            if out.failure is not None:
                yield f"table {name} {label} failure", [out.failure]


def entries() -> dict:
    record = {}
    for part in (_forces, _shifts, _oracles, _tables):
        for key, tokens in part():
            assert key not in record, key
            record[key] = tokens
    return record


def write(path=RECORD) -> None:
    lines = [f"  {json.dumps(key)}: {json.dumps(tokens)}"
             for key, tokens in entries().items()]
    head = json.dumps(header())[1:-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{" + head + ",\n \"entries\": {\n" + ",\n".join(lines) + "\n}}\n")


def read(path=RECORD) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _hex(token):
    """token as a float if it is a float.hex, else None."""
    if isinstance(token, str) and token.lstrip("-").startswith("0x"):
        return float.fromhex(token)
    return None


def _within(old, new, ulps: int) -> bool:
    """Whether two entries differ only in floats, by at most ulps units in
    the last place."""
    if old is None or new is None or len(old) != len(new):
        return False
    for x, y in zip(old, new):
        fx, fy = _hex(x), _hex(y)
        if x != y and (fx is None or fy is None or abs(fx - fy)
                       > ulps * math.ulp(max(abs(fx), abs(fy)))):
            return False
    return True


def differences(stored: dict, fresh: dict, ulps: int = 0) -> list:
    """(key, stored, fresh) of each entry that differs beyond ulps."""
    return [(key, stored.get(key), fresh.get(key))
            for key in sorted(stored.keys() | fresh.keys())
            if stored.get(key) != fresh.get(key)
            and not _within(stored.get(key), fresh.get(key), ulps)]


if __name__ == "__main__":
    write()
    print(f"wrote {len(read()['entries'])} entries to {RECORD}")
