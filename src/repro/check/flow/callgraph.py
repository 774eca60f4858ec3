"""Call-graph construction and transitive closures over a :class:`Program`.

Resolution order for a call site, most precise first:

1. **Direct names** — imported symbols, module-level functions, class
   constructors (edges to ``__init__`` / dataclass ``__post_init__``).
2. **Module attributes** — ``module.function(...)`` through an import.
3. **Typed receivers** — ``self``, annotated parameters, and simple
   assignment propagation (:func:`~repro.check.flow.model.infer_receiver_types`),
   with class-hierarchy fan-out: a call through an ``EvictionPolicy``
   receiver targets every subclass override, because the concrete
   policy is chosen at runtime.
4. **Duck fallback** — an unresolved ``x.frob()`` targets every program
   method named ``frob`` when few classes define it; wildly common
   names (container/str/numpy vocabulary) are skipped instead of
   fanning out to nonsense.

Property *reads* (``config.total_warps``) add edges too — the property
body runs on the fault path just like a call.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.check.flow.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Program,
    infer_receiver_types,
    match_any,
)

#: A duck-typed method name fans out only when at most this many
#: program classes define it; beyond that it is counted as unresolved.
DUCK_FANOUT_LIMIT = 10

#: Attribute names never duck-resolved: container/str/numpy vocabulary
#: whose matches would be coincidental.
DUCK_SKIP = frozenset({
    "get", "items", "keys", "values", "append", "add", "pop", "update",
    "copy", "clear", "sort", "split", "join", "strip", "lower", "upper",
    "encode", "decode", "format", "read", "write", "close", "extend",
    "popitem", "setdefault", "move_to_end", "remove", "discard",
    "startswith", "endswith", "index", "count", "insert", "tolist",
    "astype", "sum", "min", "max", "mean", "any", "all", "nonzero",
    "cumsum", "searchsorted", "argsort", "reshape", "view", "fill",
    "item", "flatten", "ravel", "resolve", "exists", "mkdir", "open",
    "replace", "rstrip", "lstrip", "splitlines", "partition", "group",
    "match", "search", "hexdigest", "digest", "seek", "tell", "flush",
})


@dataclass
class CallGraph:
    """Edges between function qualnames, plus resolution diagnostics."""

    edges: dict[str, set[str]] = field(default_factory=dict)
    #: Attribute names that could not be resolved anywhere, with counts.
    unresolved: Counter = field(default_factory=Counter)

    def add(self, src: str, dst: str) -> None:
        self.edges.setdefault(src, set()).add(dst)

    def closure(self, entries: Iterable[str]) -> set[str]:
        """Transitive closure of ``entries`` over the edges."""
        seen: set[str] = set()
        stack = [entry for entry in entries]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen


def _class_ctor_targets(program: Program, info: ClassInfo) -> list[str]:
    """Functions run when a class is instantiated."""
    targets: list[str] = []
    for ancestor in program.ancestors(info.qualname):
        if "__init__" in ancestor.methods:
            targets.append(ancestor.methods["__init__"].qualname)
            break
    for name in ("__post_init__",):
        for ancestor in program.ancestors(info.qualname):
            if name in ancestor.methods:
                targets.append(ancestor.methods[name].qualname)
                break
    return targets


def _immediate_body(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # nested defs are separate program functions
        for child in ast.iter_child_nodes(current):
            stack.append(child)


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


class _FunctionResolver:
    """Resolves the call/read sites of one function into edges."""

    def __init__(
        self, program: Program, graph: CallGraph, func: FunctionInfo
    ) -> None:
        self.program = program
        self.graph = graph
        self.func = func
        self.module: ModuleInfo = program.modules[func.module]
        self.types = infer_receiver_types(program, func)

    def resolve(self) -> None:
        src = self.func.qualname
        # Nested defs run (or escape) from their parent — keep the edge.
        for stmt in self.func.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.graph.add(src, f"{src}.{stmt.name}")
        for node in _immediate_body(self.func.node):
            if isinstance(node, ast.Call):
                self._resolve_call(node)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                self._resolve_property_read(node)

    # -- call sites -------------------------------------------------------

    def _resolve_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._edge_to_symbol(func.id)
            return
        if not isinstance(func, ast.Attribute):
            return
        # super().method()
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.func.owner is not None
        ):
            owner = self.program.classes.get(self.func.owner)
            if owner is not None:
                for base in owner.bases:
                    for target in self.program.lookup_method(
                        base, func.attr, virtual=False
                    ):
                        self.graph.add(self.func.qualname, target.qualname)
            return
        receiver = _dotted(func.value)
        if receiver is not None and self._edge_via_receiver(
            receiver, func.attr
        ):
            return
        self._duck_edges(func.attr)

    def _edge_to_symbol(self, name: str) -> None:
        qualname = self.program.resolve(self.module, name)
        if qualname is None:
            return
        if qualname in self.program.classes:
            for target in _class_ctor_targets(
                self.program, self.program.classes[qualname]
            ):
                self.graph.add(self.func.qualname, target)
        elif qualname in self.program.functions:
            self.graph.add(self.func.qualname, qualname)

    def _edge_via_receiver(self, receiver: str, attr: str) -> bool:
        """Edges for ``receiver.attr(...)``; True when resolved."""
        program = self.program
        # Imported module or class attribute (module.function, C.build).
        qualname = program.resolve(self.module, f"{receiver}.{attr}")
        if qualname is not None:
            if qualname in program.functions:
                self.graph.add(self.func.qualname, qualname)
                return True
            if qualname in program.classes:
                for target in _class_ctor_targets(
                    program, program.classes[qualname]
                ):
                    self.graph.add(self.func.qualname, target)
                return True
        # Typed receiver (self, annotated parameter, propagated local).
        receiver_class = self._receiver_class(receiver)
        if receiver_class is not None:
            targets = program.lookup_method(receiver_class, attr)
            if targets:
                for target in targets:
                    self.graph.add(self.func.qualname, target.qualname)
                return True
            # Typed receiver without such a method: external/dynamic
            # attribute — resolved enough, do not duck-fan-out.
            return True
        return False

    def _receiver_class(self, receiver: str) -> Optional[str]:
        if receiver in self.types:
            return self.types[receiver]
        head, _, rest = receiver.partition(".")
        if not rest:
            return None
        current = self.types.get(head)
        for part in rest.split("."):
            if current is None:
                return None
            current = _attr_class(self.program, current, part)
        return current

    def _duck_edges(self, attr: str) -> None:
        if attr.startswith("__") or attr in DUCK_SKIP:
            return
        implementations = self.program.methods_by_name.get(attr, [])
        owners = {impl.owner for impl in implementations if impl.owner}
        if not implementations:
            return
        if len(owners) > DUCK_FANOUT_LIMIT:
            self.graph.unresolved[attr] += 1
            return
        for impl in implementations:
            self.graph.add(self.func.qualname, impl.qualname)

    # -- property reads ---------------------------------------------------

    def _resolve_property_read(self, node: ast.Attribute) -> None:
        receiver = _dotted(node.value)
        if receiver is None:
            return
        receiver_class = self._receiver_class(receiver)
        if receiver_class is None:
            return
        for info in self.program.ancestors(receiver_class):
            method = info.methods.get(node.attr)
            if method is not None and method.is_property:
                self.graph.add(self.func.qualname, method.qualname)
                return


def _attr_class(
    program: Program, class_qualname: str, attr: str
) -> Optional[str]:
    for info in program.ancestors(class_qualname):
        if attr in info.attr_types:
            return info.attr_types[attr]
        if attr in info.field_types and info.field_types[attr]:
            return info.field_types[attr]
        if attr in info.methods and info.methods[attr].is_property:
            module = program.modules[info.module]
            resolved = program.resolve_annotation(
                module, info.methods[attr].node.returns
            )
            if resolved is not None:
                return resolved.qualname
    return None


def build_callgraph(
    program: Program, allowed_modules: Optional[set[str]] = None
) -> CallGraph:
    """Edges for every function whose module is in ``allowed_modules``.

    ``None`` means every module.  Edges *into* disallowed modules are
    still recorded (the closure helper filters); edges *from* them are
    not computed, which is what bounds the walk.
    """
    graph = CallGraph()
    for func in program.functions.values():
        if allowed_modules is not None and func.module not in allowed_modules:
            continue
        _FunctionResolver(program, graph, func).resolve()
    return graph


def module_closure(
    program: Program,
    entry_patterns: tuple[str, ...],
    exclude_patterns: tuple[str, ...] = (),
) -> tuple[set[str], CallGraph, set[str]]:
    """(closure function set, graph, allowed module set) for a boundary.

    Entries are *every* def in the modules matching ``entry_patterns``;
    modules matching ``exclude_patterns`` are outside the boundary —
    their functions never enter the closure and contribute no edges.
    """
    allowed: set[str] = set()
    for name, module in program.modules.items():
        if match_any(module.rel_name, exclude_patterns):
            continue
        allowed.add(name)
    graph = build_callgraph(program, allowed)
    entries = [
        func.qualname
        for func in program.functions.values()
        if match_any(
            program.modules[func.module].rel_name, entry_patterns
        )
    ]
    closure = {
        qualname
        for qualname in graph.closure(entries)
        if qualname in program.functions
        and program.functions[qualname].module in allowed
    }
    return closure, graph, allowed
