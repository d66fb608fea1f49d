"""Spans around pathcycle's layer functions, recorded from outside the package.

:class:`Tracer` replaces each function listed in :data:`LAYERS` by a timing
wrapper under every name it is looked up by: ``solve`` reaches the matching
as ``pathcycle.factor.maximum_matching`` and ``discharge`` reaches the
deficiency as ``pathcycle.discharge.tutte_delta``, so the spans sit on the
real call path.  :meth:`Tracer.uninstall` puts the originals back.  A
function that a later version no longer has is reported as absent and its
metrics read 0.

A layer's ``_s`` metric is self time: the span's duration minus the spans
of wrapped functions it calls.  Spans are kept in memory as ``(id, parent,
name, start, end)`` and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _scan_outcome(result) -> str:
    return "certkernel.scan_feasible_s" if result is None else "certkernel.scan_infeasible_s"


def _scan_counts(args, result, frame):
    kind = "feasible" if result is None else "infeasible"
    return {f"certkernel.table_setup_{kind}_s": frame.probe}


def _matching_counts(args, result, frame):
    return {"matching.unmatched_vertices": args[0].n - 2 * len(result.pairs)}


def _gadget_counts(args, result, frame):
    return {"factor.gadget_vertices": result.graph.n, "factor.gadget_edges": result.graph.edge_count}


# (module, attribute path, self-time metric or a function of the result that
# names it, call-count metric, extra counts from (args, result, frame))
LAYERS = [
    ("pathcycle.cli", "run", "cli.run_s", None, None),
    ("pathcycle.graphs", "parse_graph", "graphs.parse_s", "graphs.parse_calls", None),
    ("pathcycle.graphs", "parse_terminals", "graphs.parse_s", "graphs.parse_calls", None),
    ("pathcycle.graphs", "components_after_removal", "graphs.components_s", "graphs.components_calls", None),
    ("pathcycle.matching", "maximum_matching", "matching.maximum_matching_s", "matching.calls", _matching_counts),
    ("pathcycle.factor", "build_gadget", "factor.build_gadget_s", None, _gadget_counts),
    ("pathcycle.factor", "extract_f_factor", "factor.extract_s", None, None),
    ("pathcycle.factor", "decompose_system", "factor.decompose_s", None, None),
    ("pathcycle.factor", "PathCycleSystem.validate", "factor.validate_s", None, None),
    ("pathcycle.factor", "solve", "factor.solve_s", "factor.solve_calls", None),
    ("pathcycle.factor", "brute_force_f_factor", "factor.oracle_s", "factor.oracle_calls", None),
    ("pathcycle.verify", "edge_connectivity", "verify.edge_connectivity_s", "verify.edge_connectivity_calls", None),
    ("pathcycle.verify", "find_induced_star", "verify.find_induced_star_s", None, None),
    ("pathcycle._certkernel", "least_violation", _scan_outcome, "certkernel.scan_calls", _scan_counts),
    ("pathcycle.tutte", "search_certificate", "tutte.search_certificate_s", None, None),
    ("pathcycle.tutte", "evaluate_pair", "tutte.evaluate_pair_s", None, None),
    ("pathcycle.tutte", "delta", "tutte.delta_s", "tutte.delta_calls", None),
    ("pathcycle.tutte", "odd_components", "tutte.odd_components_s", "tutte.odd_components_calls", None),
    ("pathcycle.discharge", "discharge", "discharge.discharge_s", "discharge.calls", None),
    ("pathcycle.discharge", "GraphHypotheses.compute", "discharge.hypotheses_s", None, None),
    ("pathcycle.families", "gen_prop1_odd", "families.generate_s", None, None),
    ("pathcycle.families", "gen_prop1_even", "families.generate_s", None, None),
    ("pathcycle.families", "gen_prop2_r4", "families.generate_s", None, None),
    ("pathcycle.families", "random_valid_instance", "families.generate_s", None, None),
]

# Timed without being subtracted from the span that calls them, with an
# optional call count: the part of a certificate scan spent building its
# tables (split like the scan itself) and the max-flow runs of verify.
PROBES = [
    ("pathcycle._certkernel", "_Scan.__init__", None),
    ("pathcycle.verify", "_max_flow_unit", "verify.max_flow_calls"),
]

# Reported besides the names in LAYERS and PROBES.
DERIVED = [
    "certkernel.scan_feasible_s",
    "certkernel.scan_infeasible_s",
    "certkernel.table_setup_feasible_s",
    "certkernel.table_setup_infeasible_s",
    "factor.gadget_edges",
    "factor.gadget_vertices",
    "matching.unmatched_vertices",
    "trace.absent_layers",
    "trace.overhead_s",
]


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports."""
    names = set(DERIVED)
    names.update(row[2] for row in LAYERS if isinstance(row[2], str))
    names.update(row[3] for row in LAYERS if row[3])
    names.update(row[2] for row in PROBES if row[2])
    return sorted(names)


class _Frame:
    __slots__ = ("span", "child", "probe")

    def __init__(self, span: int):
        self.span = span
        self.child = 0.0
        self.probe = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def reset(self) -> dict[str, float]:
        """Return the totals so far and start new ones."""
        totals = dict(self.totals)
        self.totals.clear()
        return totals

    def span(self, name, calls, counts, fn):
        stack, totals, spans = self._stack, self.totals, self.spans

        def wrapper(*args, **kwargs):
            frame = _Frame(len(spans))
            parent = stack[-1].span if stack else -1
            spans.append(None)  # reserve the id; a call that raises leaves it empty
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += end - start
            label = name if isinstance(name, str) else name(result)
            spans[frame.span] = (frame.span, parent, label, start, end)
            totals[label] += end - start - frame.child
            if calls:
                totals[calls] += 1
            if counts:
                for key, value in counts(args, result, frame).items():
                    totals[key] += value
            return result

        return wrapper

    def probe(self, calls, fn):
        stack, totals = self._stack, self.totals

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    stack[-1].probe += perf_counter() - start
                if calls:
                    totals[calls] += 1

        return wrapper

    def op(self, fn):
        """Run ``fn`` as the root span of one benchmark operation."""
        return self.span("bench.op", None, None, fn)()

    # -- installing -------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        self.absent = []
        for module, path, timed, calls, counts in LAYERS:
            self._wrap(module, path, lambda fn: self.span(timed, calls, counts, fn))
        for module, path, calls in PROBES:
            self._wrap(module, path, lambda fn: self.probe(calls, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, module_name: str, path: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{path}")
            return
        if outer:  # a method or classmethod on a class
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = make(raw)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "pathcycle" and not name.startswith("pathcycle."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    # -- output -------------------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent id (-1 for a root), name, start, end."""
        with open(path, "w") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")
