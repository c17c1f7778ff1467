"""The package's public surface: what a star import binds, and the names
that the benchmark's tracer (bench/tracing.py) wraps."""

import importlib.util
import sys
import types
from pathlib import Path

import entmono
from entmono import cli, measures, monogamy, states

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_star_import_binds_the_api_and_no_module():
    ns = {}
    exec("from entmono import *", ns)
    del ns["__builtins__"]
    assert [n for n, v in ns.items() if isinstance(v, types.ModuleType)] == []
    assert sorted(ns) == sorted(entmono.__all__)
    assert all(ns[n] is getattr(entmono, n) for n in entmono.__all__)


def test_tracer_wraps_and_restores_the_real_modules(monkeypatch):
    # load the tracer from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec.loader.exec_module(tracing)

    modules = (cli, states, measures, monogamy)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install(*modules)  # an AttributeError names a traced function that is gone
    try:
        wrapped = {f"{m.__name__}.{k}" for m, snap in zip(modules, before)
                   for k, v in snap.items() if vars(m)[k] is not v}
    finally:
        tracer.uninstall()
    assert {"entmono.measures.reduced_density", "entmono.measures.assisted_concurrence",
            "entmono.measures.measure_triple", "entmono.monogamy.sweep",
            "entmono.cli.build_parser"} <= wrapped
    for m, snap in zip(modules, before):
        assert vars(m).keys() == snap.keys()
        assert [k for k, v in snap.items() if vars(m)[k] is not v] == []
