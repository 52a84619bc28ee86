"""Per-layer spans for the benchmark's traced runs.

The tracer lives in the benchmark, not in graphdiv: it replaces every
binding of the listed public functions in every loaded ``graphdiv.*``
module namespace with a wrapper that records a span. graphdiv calls its
own helpers through module globals (``find_p5`` -> ``find_induced``,
``find_odd_antihole`` -> ``find_odd_hole``), so the wrappers see those
intra-library calls too. ``Graph.__post_init__`` is counted, not timed.

A span holds its name, start, end and parent; spans stay in memory and are
reduced to per-function numbers when the run ends. Self time is a span's
duration minus the time its child spans cover; total time sums only the
outermost span of a function, so recursion is not counted twice.
"""

import importlib
import sys
import time
from array import array
from collections import Counter

TRACED = {
    "corpus": ("nonisomorphic_graphs", "canonical_key", "canonical_graph"),
    "formats": ("emit_graph6", "parse_graph6"),
    "recognition": (
        "classify",
        "find_induced",
        "find_odd_hole",
        "find_odd_antihole",
        "is_perfect",
        "find_homogeneous_set",
        "is_homogeneous",
    ),
    "core": ("induced_subgraph", "complement", "clique_number", "max_weight_clique", "chromatic_number_exact"),
    "divisibility": (
        "two_divide",
        "verify_two_division",
        "is_two_divisible_oracle",
        "perfect_divide",
        "verify_perfect_division",
        "quotient_by_homogeneous_set",
        "recombine",
        "find_perfect_nonneighborhood_vertex",
    ),
    "coloring": ("color_via_two_division", "color_via_perfect_division"),
    "harness": ("run_classify", "run_divide", "run_color", "run_verify"),
    "report": ("build_report", "report_to_json"),
}

CACHED = ("recognition.find_odd_hole", "recognition.find_homogeneous_set")


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, functions in TRACED.items():
        for function in functions:
            names += [f"{module}.{function}.{kind}" for kind in ("calls", "self_s", "total_s")]
    names.append("core.Graph.init.calls")
    for cached in CACHED:
        names += [f"{cached}.hit_ratio", f"{cached}.cache_lookups"]
    names += ["divisibility.verify_per_divide", "divisibility.perfect_tries_per_prime"]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.originals = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outermost = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors = Counter()
        self.graph_inits = [0]
        self.stack = []

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        span_name = self.span_name
        span_parent = self.span_parent
        span_outermost = self.span_outermost
        span_start = self.span_start
        span_end = self.span_end
        errors = self.errors
        stack = self.stack
        depth = [0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(index)
            span_parent.append(stack[-1] if stack else -1)
            span_outermost.append(depth[0] == 0)
            span_end.append(0.0)
            stack.append(span)
            depth[0] += 1
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                span_end[span] = clock()
                depth[0] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap the listed functions everywhere graphdiv binds them."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"graphdiv.{module_name}")
            for function in functions:
                original = getattr(module, function)
                wrappers[id(original)] = (original, self._wrap(f"{module_name}.{function}", original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "graphdiv" and not module_name.startswith("graphdiv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        graph = importlib.import_module("graphdiv.core").Graph
        post_init = graph.__post_init__
        inits = self.graph_inits

        def counted(g):
            inits[0] += 1
            post_init(g)

        graph.__post_init__ = counted

    def metrics(self) -> dict:
        """Reduce the spans to the per-layer metrics of ``layer_metric_names``."""
        count = len(self.names)
        calls = [0] * count
        self_s = [0.0] * count
        total_s = [0.0] * count
        spans = len(self.span_name)
        covered = [0.0] * spans
        for span in range(spans - 1, -1, -1):
            duration = self.span_end[span] - self.span_start[span]
            index = self.span_name[span]
            calls[index] += 1
            self_s[index] += duration - covered[span]
            if self.span_outermost[span]:
                total_s[index] += duration
            parent = self.span_parent[span]
            if parent >= 0:
                covered[parent] += duration
        out = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]
            out[f"{name}.total_s"] = total_s[index]
        out["core.Graph.init.calls"] = self.graph_inits[0]
        for cached in CACHED:
            info = self.originals[cached].cache_info()
            lookups = info.hits + info.misses
            out[f"{cached}.cache_lookups"] = lookups
            out[f"{cached}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["divisibility.verify_per_divide"] = _ratio(
            self._count_spans("divisibility.verify_perfect_division", outside="harness.run_verify"),
            out["divisibility.perfect_divide.calls"],
        )
        out["divisibility.perfect_tries_per_prime"] = _ratio(
            self._count_spans("recognition.is_perfect", parent="divisibility.find_perfect_nonneighborhood_vertex"),
            out["divisibility.find_perfect_nonneighborhood_vertex.calls"],
        )
        return out

    def _count_spans(self, name, *, parent=None, outside=None) -> int:
        """Spans of ``name`` whose direct parent is ``parent``, or that have
        no ancestor named ``outside``."""
        target = self.names.index(name)
        parent_index = self.names.index(parent) if parent else None
        outside_index = self.names.index(outside) if outside else None
        found = 0
        for span, index in enumerate(self.span_name):
            if index != target:
                continue
            up = self.span_parent[span]
            if parent_index is not None:
                found += up >= 0 and self.span_name[up] == parent_index
                continue
            while up >= 0 and self.span_name[up] != outside_index:
                up = self.span_parent[up]
            found += up < 0
        return found


def _ratio(numerator, base) -> float:
    return numerator / base if base else 0.0
