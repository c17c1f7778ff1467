"""Spans around calls into entmono's layers, and the per-layer metrics.

The tracer replaces each traced function at the module attribute its caller
resolves (``cli`` calls ``monogamy.sweep``, ``monogamy`` calls
``_measures.measure_triple`` and ``_states.haar_random``, ``measures`` calls
its own ``reduced_density`` and ``assisted_concurrence``), records one span
per call in memory, and restores the originals on exit.  Spans nest: each
records the span open when it started, so a layer's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import statistics
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    key: str | None
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name, key=None):
        """Record one span around a block: the benchmark's own root spans."""
        idx = self._begin(name, key)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name, key) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, key, perf_counter(), 0.0, parent))
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx].end = perf_counter()
        self._open.pop()

    def wrap(self, module, attr, name, key=None):
        """Replace ``module.attr`` with a span-recording wrapper."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._begin(name, key(*args, **kwargs) if key else None)
            try:
                return orig(*args, **kwargs)
            finally:
                self._end(idx)

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def wrap_parser(self, cli):
        """Span ``cli.parse`` over ``build_parser`` and the ``parse_args`` call."""
        build = cli.build_parser

        @functools.wraps(build)
        def traced_build():
            idx = self._begin("cli.parse", None)
            try:
                parser = build()
            finally:
                self._end(idx)
            parse = parser.parse_args

            def traced_parse(argv=None):
                idx = self._begin("cli.parse", None)
                try:
                    return parse(argv)
                finally:
                    self._end(idx)

            parser.parse_args = traced_parse
            return parser

        cli.build_parser = traced_build
        self._restore.append((cli, "build_parser", build))

    def install(self, cli, states, measures, monogamy):
        for attr in ("haar_random", "w_class", "from_schmidt"):
            self.wrap(states, attr, "states.sample")
        self.wrap(states, "load_state", "states.load")
        self.wrap(measures, "measure_triple", "measures.triple",
                  key=lambda state, mid: mid.value)
        self.wrap(measures, "assisted_concurrence", "measures.assisted")
        self.wrap(measures, "reduced_density", "measures.reduced_density")
        for attr in ("solve_x", "min_alpha", "residual", "sweep"):
            self.wrap(monogamy, attr, f"monogamy.{attr}")
        self.wrap_parser(cli)

    def uninstall(self):
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)


class PoolProbe:
    """Counts workers and chunks of every process pool ``sweep`` creates.

    ``monogamy.sweep`` imports ``ProcessPoolExecutor`` from
    ``concurrent.futures`` at call time, so a subclass set on that module
    attribute sees each pool.
    """

    def __init__(self):
        self.pools: list[list[int]] = []  # [max_workers, chunks mapped]

    def __enter__(self):
        pools = self.pools

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                pools.append([max_workers, 0])

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                pools[-1][1] = len(iterables[0])
                return super().map(fn, *iterables, **kwargs)

        concurrent.futures.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        concurrent.futures.ProcessPoolExecutor = ProcessPoolExecutor


# --- per-layer metrics --------------------------------------------------------


def percentile(values, q):
    """The q-th percentile (1..99), interpolated; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _p50(values):
    return statistics.median(values) if values else 0.0


def _children_time(spans, parents):
    """Total duration of the direct children of each span index in ``parents``."""
    busy = dict.fromkeys(parents, 0.0)
    for s in spans:
        if s.parent in busy:
            busy[s.parent] += s.end - s.start
    return busy


MEASURES = ("c", "ca", "eof")


def layer_metrics(tracer: Tracer, wall_s: float, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced pass of ``commands`` commands.

    ``wall_s`` is the pass's command time.  Calls are counted per command, so
    they do not depend on how many commands fit in the run.  Times of a
    layer that the pass never called read 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def us(name, key=None):
        return [(spans[i].end - spans[i].start) * 1e6 for i in by_name.get(name, ())
                if key is None or spans[i].key == key]

    m = {}
    sample = us("states.sample")
    m["states.sample.calls"] = (len(sample) / commands, "count/op")
    m["states.sample.us_p50"] = (_p50(sample), "us")
    m["states.load.us_p50"] = (_p50(us("states.load")), "us")
    for mid in MEASURES:
        t = us("measures.triple", mid)
        m[f"measures.triple.{mid}.calls"] = (len(t) / commands, "count/op")
        m[f"measures.triple.{mid}.us_p50"] = (_p50(t), "us")
        m[f"measures.triple.{mid}.us_p99"] = (percentile(t, 99), "us")
        m[f"measures.triple.{mid}.share"] = (sum(t) / 1e6 / wall_s, "ratio")
    assisted = us("measures.assisted")
    m["measures.assisted.calls"] = (len(assisted) / commands, "count/op")
    m["measures.assisted.us_p50"] = (_p50(assisted), "us")
    m["measures.reduced_density.calls"] = (
        len(by_name.get("measures.reduced_density", ())) / commands, "count/op")

    m["monogamy.solve_x.us_p50"] = (_p50(us("monogamy.solve_x")), "us")
    min_alpha = by_name.get("monogamy.min_alpha", [])
    m["monogamy.min_alpha.calls"] = (len(min_alpha) / commands, "count/op")
    m["monogamy.min_alpha.us_p50"] = (_p50(us("monogamy.min_alpha")), "us")
    inside = set(min_alpha)
    residual_calls = sum(1 for i in by_name.get("monogamy.residual", ())
                         if spans[i].parent in inside)
    m["monogamy.residual_per_min_alpha"] = (
        residual_calls / len(min_alpha) if min_alpha else 0.0, "count/call")
    sweeps = by_name.get("monogamy.sweep", [])
    child = _children_time(spans, sweeps)
    m["monogamy.sweep.self_ms"] = (
        _p50([(spans[i].end - spans[i].start - child[i]) * 1e3 for i in sweeps]), "ms")

    commands = by_name.get("cli.main", [])
    parse = dict.fromkeys(commands, 0.0)
    for i in by_name.get("cli.parse", ()):
        parse[spans[i].parent] += spans[i].end - spans[i].start
    child = _children_time(spans, commands)
    m["cli.parse.us_p50"] = (_p50([parse[i] * 1e6 for i in commands]), "us")
    m["cli.self_us_p50"] = (
        _p50([(spans[i].end - spans[i].start - child[i]) * 1e6 for i in commands]), "us")
    return m
