"""Opt-in tracing of infoval from outside: every public function is wrapped.

Each call becomes a span (name, start, end, parent span, op execution) kept
in memory. Names that a module imported from another (facet_between in
decision and identification, for example) are patched in every module that
holds them, so internal calls through module globals are traced as well.
Work counts come from call arguments and return values, and are derived
only when the run ends.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from math import comb
from time import perf_counter

MODULES = ("linprog", "geometry", "decision", "information", "identification", "spectral")

# functions whose arguments and results feed the work counts
_KEEP_ARGS = {
    "geometry.vertices_of",
    "geometry.hull_halfspaces",
    "geometry.facet_between",
    "decision.undominated_actions",
    "identification.generate_identification",
}


class Tracer:
    def __init__(self, package_modules: dict[str, object]):
        """package_modules maps every loaded infoval module name to the module."""
        self.package_modules = package_modules
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.execution = -1
        self.active = False
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._table = None
        for short in MODULES:
            module = package_modules[f"infoval.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        keep = name in _KEEP_ARGS
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    name_id,
                    start,
                    end,
                    parent,
                    self.execution,
                    (args, result) if keep else None,
                )

        return traced

    def install(self) -> None:
        for module in self.package_modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self.active = True

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.active = False

    def begin_op(self, execution: int) -> None:
        """Start a new op execution; a timeout may have left spans open."""
        self.execution = execution
        self.stack.clear()

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------

    def max_of(self, name: str, field: str) -> float:
        """Largest value of one work field over all calls of a function."""
        return max(
            (row[name][field] for row in self.per_execution().values() if name in row),
            default=0.0,
        )

    def per_execution(self) -> dict[int, dict[str, dict[str, float]]]:
        """For each op execution: per function name its calls, self time and work."""
        if self._table is not None:
            return self._table
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        table: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, _, execution, kept = span
            name = self.names[name_id]
            row = table[execution].setdefault(name, defaultdict(float))
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            if kept is not None:
                for key, value in _work(name, *kept).items():
                    row[key] += value
        self._table = table
        return table

    def per_pass(self, executions: list[str]) -> dict[str, dict[str, float]]:
        """Per-pass figures: per function, the sum over ops of each op's smallest value.

        executions maps an op execution number to its op key.
        """
        by_op: dict[str, list[dict]] = defaultdict(list)
        for execution, row in self.per_execution().items():
            by_op[executions[execution]].append(row)
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for key, rows in by_op.items():
            names = {name for row in rows for name in row}
            for name in names:
                fields = {f for row in rows for f in row.get(name, {})}
                for f in fields:
                    values = [row.get(name, {}).get(f, 0.0) for row in rows]
                    out[name][f] += min(values)
        return out


def _work(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts of one call, from its arguments and return value."""
    if name == "geometry.hull_halfspaces":
        points = set(args[0])
        n = next(iter(points)).n if points else 0
        return {"subsets": comb(len(points), n - 1) if n else 0, "found": len(result or ())}
    if name == "geometry.vertices_of":
        halfspaces, n = args[0], args[1]
        distinct = {(h.canonical().normal, h.canonical().offset) for h in halfspaces}
        return {"subsets": comb(len(distinct) + n, n - 1), "found": len(result or ())}
    if name == "geometry.facet_between":
        return {"hits": 1 if result is not None else 0}
    if name == "decision.undominated_actions":
        return {"actions": args[0].num_actions, "kept": len(result or ())}
    if name == "identification.generate_identification" and result is not None:
        return {
            "statements": len(result.ordinal),
            "differences": len(result.cardinal),
            "max_bits": max_bits(result),
        }
    return {}


def max_bits(data) -> int:
    """Largest numerator or denominator bit length anywhere in the data."""
    numbers = list(data.prior.coords)
    for item in (*data.ordinal, *data.cardinal):
        for dist in (item.lhs, item.rhs):
            for belief, prob in dist.atoms:
                numbers.extend(belief.coords)
                numbers.append(prob)
    numbers.extend(d.gap for d in data.cardinal)
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in numbers)
