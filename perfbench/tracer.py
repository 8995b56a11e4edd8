"""Span tracer that wraps superjack's public layer functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` rebinds each traced
function in every superjack module that holds it (a name brought in with
``from ... import`` is a separate binding and must be wrapped there too), and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory as
``(span_id, parent_id, name, start, end, item)`` tuples and written out once,
at the end of a pass.  Self time is the span's duration minus the time its
wrapped children cover.  Everything runs on one thread, so a plain stack
gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Public functions traced per layer; the layer is the superjack module name.
LAYERS = {
    "coeffring": ("poly_gcd", "alpha_eval", "parse_alpha", "solve_exact"),
    "spart": ("enumerate_sparts", "is_admissible"),
    "superpoly": ("monomial_msym", "to_mbasis", "divide_xdiff"),
    "ops": ("apply_D", "apply_Delta", "cherednik", "sekiguchi_S",
            "sekiguchi_S_tilde", "q_op", "q_perp", "Q_op", "Q_perp", "L_op"),
    "jack": ("jack_symbolic", "jack_at"),
    "ideals": ("membership", "degree_basis"),
    "suites": ("suite_stability", "suite_sekiguchi"),
    "cli": ("dispatch", "cache_store", "cache_load"),
}

# Operator-matrix assembly: superpoly/ops work done inside jack_symbolic.
ASSEMBLY_LAYERS = ("superpoly", "ops")


def family_tag(n: int, m: int, N: int) -> str:
    return f"n{n}m{m}N{N}"


def coeff_growth(coeffs) -> tuple[int, int]:
    """Largest a-degree and integer bit size over Q(a) coefficients."""
    degree = bits = 0
    for c in coeffs:
        for p in (c.num, c.den):
            degree = max(degree, len(p.coeffs) - 1)
            bits = max(bits, max((abs(x).bit_length() for x in p.coeffs),
                                 default=0))
    return degree, bits


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Wraps, records and aggregates; one instance per traced pass."""

    def __init__(self, run_id: str, marks: list | None = None):
        self.run_id = run_id
        # the workload appends one mark per finished request: its count is the
        # index of the request in progress
        self._marks = [] if marks is None else marks
        self.spans: list[tuple] = []
        self.stats = {f"{layer}.{name}": _Stat()
                      for layer, names in LAYERS.items() for name in names}
        self._stack: list[list] = []  # [span_id, name, start, child_time]
        self._next_id = 1
        self._assembly_depth = 0
        self._jack_family: str | None = None
        self._restore: list[tuple] = []
        # counts measured where the work happens
        self.cells = 0
        self.terms = defaultdict(int)
        self.store_bytes = 0
        self.load_hits = 0
        self.jack_hits = 0
        self._jack_seen: set = set()
        self.jack_results: dict = {}
        self.assembly = defaultdict(float)
        self.jack_busy = defaultdict(float)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        homes = {layer: importlib.import_module(f"superjack.{layer}")
                 for layer in LAYERS}
        modules = [mod for name, mod in sys.modules.items()
                   if name == "superjack" or name.startswith("superjack.")]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for mod in modules:
                    if vars(mod).get(name) is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    # -- recording ---------------------------------------------------------
    def _wrap(self, qualname: str, layer: str, fn):
        stat = self.stats[qualname]
        stack = self._stack
        spans = self.spans
        assembly = layer in ASSEMBLY_LAYERS
        is_jack = qualname == "jack.jack_symbolic"
        count = _COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            outer_jack = is_jack and tracer._jack_family is None
            if outer_jack:
                L, N = args[0], args[1]
                tracer._jack_family = family_tag(*L.degree(), N)
            if assembly:
                tracer._assembly_depth += 1
            stat.depth += 1
            frame = [span_id, qualname, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                stat.calls += 1
                stat.self_time += duration - frame[3]
                stat.depth -= 1
                if not stat.depth:
                    stat.busy += duration
                if stack:
                    stack[-1][3] += duration
                if assembly:
                    tracer._assembly_depth -= 1
                    if not tracer._assembly_depth and tracer._jack_family:
                        tracer.assembly[tracer._jack_family] += duration
                if outer_jack:
                    tracer.jack_busy[tracer._jack_family] += duration
                    tracer._jack_family = None
                spans.append((span_id, parent, qualname, frame[2], end,
                              len(tracer._marks)))
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times for this pass."""
        out: dict[str, float] = {}
        for qualname, st in self.stats.items():
            out[f"{qualname}.calls"] = st.calls
            out[f"{qualname}.busy_s"] = st.busy
            out[f"{qualname}.self_s"] = st.self_time
        js = self.stats["jack.jack_symbolic"]
        out["jack.jack_symbolic.hits"] = self.jack_hits
        out["jack.jack_symbolic.assembly_s"] = sum(self.assembly.values())
        out["jack.jack_symbolic.solve_s"] = js.busy - sum(self.assembly.values())
        out["cli.cache_load.hits"] = self.load_hits
        out["cli.cache_store.bytes"] = self.store_bytes
        out["coeffring.solve_exact.cells"] = self.cells
        out["superpoly.monomial_msym.terms"] = sum(self.terms.values())
        growth = {}
        for (L, N), expansion in self.jack_results.items():
            tag = family_tag(*L.degree(), N)
            d, b = coeff_growth(expansion.coeffs.values())
            old = growth.get(tag, (0, 0))
            growth[tag] = (max(old[0], d), max(old[1], b))
        out["jack.max_coeff_degree"] = max((g[0] for g in growth.values()),
                                           default=0)
        out["jack.max_coeff_bits"] = max((g[1] for g in growth.values()),
                                         default=0)
        for tag, terms in self.terms.items():
            out[f"superpoly.monomial_msym.{tag}.terms"] = terms
        for tag, (degree, bits) in growth.items():
            out[f"jack.{tag}.max_coeff_degree"] = degree
            out[f"jack.{tag}.max_coeff_bits"] = bits
        for tag, busy in self.jack_busy.items():
            out[f"jack.{tag}.assembly_s"] = self.assembly.get(tag, 0.0)
            out[f"jack.{tag}.solve_s"] = busy - self.assembly.get(tag, 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, name, start, end, run, item."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, item in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "run": self.run_id, "item": item}))
                fh.write("\n")


# -- counts taken from a call's arguments and result, after its span ends ----

def _count_cells(tracer, args, result):
    tracer.cells += args[0].rows * args[0].cols


def _count_terms(tracer, args, result):
    L, N = args[0], args[1]
    tracer.terms[family_tag(*L.degree(), N)] += len(result.terms)


def _count_jack(tracer, args, result):
    key = (args[0], args[1])
    if key in tracer._jack_seen:
        tracer.jack_hits += 1
    else:
        tracer._jack_seen.add(key)
        tracer.jack_results[key] = result


def _count_store(tracer, args, result):
    tracer.store_bytes += result.stat().st_size


def _count_load(tracer, args, result):
    if result is not None:
        tracer.load_hits += 1


_COUNTERS = {
    "coeffring.solve_exact": _count_cells,
    "superpoly.monomial_msym": _count_terms,
    "jack.jack_symbolic": _count_jack,
    "cli.cache_store": _count_store,
    "cli.cache_load": _count_load,
}
