"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

Tracing replaces each listed function, in the namespace of every loaded
`helsinki` module that holds it, with a wrapper that records a span: name,
start, end, parent span, op id, whether it raised, and a few counts. The
originals are restored when the `patched()` block ends. Nothing inside the
package is edited; `model` gets no spans and its cost shows up as the
solver's time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span. `render.render` and `cli.run`
# are split by format and by command, from their arguments.
TRACED = [
    ("structure", "parse_scenario_document"),
    ("structure", "validate_topology"),
    ("structure", "serialize_scenario"),
    ("structure", "longest_node_path"),
    ("structure", "build_chain"),
    ("solver", "has_completion"),
    ("solver", "complete"),
    ("solver", "count_completions"),
    ("analysis", "consistency_sweep"),
    ("analysis", "state_table"),
    ("analysis", "retro_witnesses"),
    ("analysis", "nonlocality_witnesses"),
    ("prob", "completion_distribution"),
    ("prob", "marginal"),
    ("prob", "signalling_score"),
    ("prob", "epistemic_state"),
    ("loops", "loop_universality"),
    ("loops", "solve_loop"),
    ("render", "render"),
    ("cli", "run"),
]
SOLVER_SPANS = ("solver.has_completion", "solver.complete", "solver.count_completions")
CALLER_LAYERS = ("analysis", "prob", "loops")


def _render_name(args, kwargs) -> str:
    fmt = kwargs.get("fmt", args[2] if len(args) > 2 else "ascii")
    return f"render.render.{fmt}"


def _cli_name(args, kwargs, commands) -> str:
    argv = args[0] if args else kwargs.get("argv", [])
    command = next((a for a in argv if a in commands), "unknown")
    return f"cli.run.{command}"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "failed", "info")

    def __init__(self, sid, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = sid, name, start, parent, op
        self.end = start
        self.failed = False
        self.info: dict = {}


class Tracer:
    """Records spans while its `patched()` block is active."""

    def __init__(self, cli_commands):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = ""
        self.cli_commands = tuple(cli_commands)
        self._edge_keys: dict[int, tuple] = {}
        self._keep: list = []

    def _structure_key(self, structure) -> tuple:
        key = self._edge_keys.get(id(structure))
        if key is None:
            key = tuple(sorted(structure.edges))
            self._edge_keys[id(structure)] = key
            self._keep.append(structure)  # keeps id() from being reused
        return key

    def _wrap(self, qualname: str, fn):
        tracer = self
        if qualname == "render.render":
            name_of = _render_name
        elif qualname == "cli.run":
            name_of = functools.partial(_cli_name, commands=self.cli_commands)
        else:
            name_of = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else qualname
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), name, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            tracer._count(span, qualname, args, kwargs, result)
            return result

        return traced

    def _count(self, span, qualname, args, kwargs, result) -> None:
        if qualname in SOLVER_SPANS:
            structure = args[0] if args else kwargs["structure"]
            partial = args[1] if len(args) > 1 else kwargs["partial"]
            span.info["input"] = (self._structure_key(structure), tuple(sorted(partial.items())))
            if qualname == "solver.complete":
                span.info["explored"] = result.explored
                span.info["solutions"] = len(result.solutions)
        elif qualname == "structure.parse_scenario_document":
            text = args[0] if args else kwargs["text"]
            span.info["bytes_in"] = len(text.encode("utf-8"))
        elif qualname == "render.render":
            span.info["bytes_out"] = len(result.encode("utf-8"))

    @contextlib.contextmanager
    def patched(self):
        """Swap every traced function for its wrapper in every helsinki module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "helsinki" or n.startswith("helsinki.")]
        undo = []
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"helsinki.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent.id if s.parent else None, "op": s.op, "failed": s.failed,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans into `<module>.<function>.<stat>` values."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        info: dict[str, float] = defaultdict(float)
        inputs: dict[str, list] = defaultdict(list)
        for s in self.spans:
            duration = s.end - s.start
            busy[s.name] += duration
            calls[s.name] += 1
            failed[s.name] += s.failed
            if s.parent is not None:
                child[s.parent.id] += duration
            for key in ("explored", "solutions", "bytes_in", "bytes_out"):
                if key in s.info:
                    info[f"{s.name}.{key}"] += s.info[key]
            if "input" in s.info:
                layer = self._caller_layer(s)
                if layer:
                    inputs[layer].append(s.info["input"])
        self_time: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_time[s.name] += (s.end - s.start) - child[s.id]

        m: dict[str, float] = {}
        for name in busy:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.self_s"] = self_time[name]
            m[f"{name}.failed"] = failed[name]
        if busy["structure.parse_scenario_document"] > 0:
            m["structure.parse_scenario_document.mb_per_s"] = (
                info["structure.parse_scenario_document.bytes_in"] / 1e6 / busy["structure.parse_scenario_document"]
            )
        if calls["solver.has_completion"]:
            m["solver.has_completion.us_per_call"] = busy["solver.has_completion"] / calls["solver.has_completion"] * 1e6
        m["solver.complete.explored"] = info["solver.complete.explored"]
        m["solver.complete.solutions"] = info["solver.complete.solutions"]
        if info["solver.complete.explored"]:
            m["solver.complete.solutions_per_explored"] = (
                info["solver.complete.solutions"] / info["solver.complete.explored"]
            )
        for fmt in ("ascii", "graph"):
            m[f"render.render.{fmt}.bytes_out"] = info[f"render.render.{fmt}.bytes_out"]
        for layer in CALLER_LAYERS:
            seen = inputs[layer]
            m[f"{layer}.solver_calls"] = len(seen)
            m[f"{layer}.solver_distinct_ratio"] = len(set(seen)) / len(seen) if seen else 0
        for name in list(m):
            if name.startswith("cli.run.") and name.endswith(".busy_s"):
                m[name[: -len("busy_s")] + "busy_ms"] = m[name] * 1000
        return m

    @staticmethod
    def _caller_layer(span: Span):
        """The analysis, prob or loops span a solver call was made under."""
        p = span.parent
        while p is not None:
            layer = p.name.split(".", 1)[0]
            if layer in CALLER_LAYERS:
                return layer
            p = p.parent
        return None
