"""Whole-program AST model for the flow analyzer.

Everything downstream of this module — the call graph, the fault-path
behaviour fingerprints (REP009), the spec-coverage taint (REP010), and
the worker-safety/determinism rules (REP011/REP012) — operates on the
:class:`Program` built here: every module of a package parsed once,
with module/symbol resolution, a class hierarchy, and a deliberately
light type-inference layer that leans on the strict-typing gate (the
fault-path packages are fully annotated, so parameter annotations are
a reliable receiver-type oracle).

Pure :mod:`ast` like the lint pass and the typing gate: nothing under
``src`` is imported or executed, so the analyzer works on trees that do
not even import cleanly (and on fixture packages in tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional


def match_module(name: str, pattern: str) -> bool:
    """Does package-relative module ``name`` match ``pattern``?

    ``"sim.engine"`` matches exactly; ``"policies.*"`` matches
    ``policies`` itself and every submodule.
    """
    if pattern.endswith(".*"):
        head = pattern[:-2]
        return name == head or name.startswith(head + ".")
    return name == pattern


def match_any(name: str, patterns: tuple[str, ...]) -> bool:
    """Does ``name`` match any of ``patterns`` (see :func:`match_module`)?"""
    return any(match_module(name, pattern) for pattern in patterns)


@dataclass
class FunctionInfo:
    """One function, method, or nested def."""

    qualname: str  # repro.sim.engine.UVMSimulator.run
    module: str  # repro.sim.engine
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Enclosing class qualname for methods, ``None`` otherwise.
    owner: Optional[str] = None
    is_property: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: Base expressions as dotted text (resolved to qualnames later).
    base_names: list[str] = field(default_factory=list)
    #: Resolved program-class qualnames of the bases.
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-level non-function statements (dataclass fields, class vars).
    class_var_stmts: list[ast.stmt] = field(default_factory=list)
    #: ``name: annotation-qualname`` for annotated fields (dataclasses).
    field_types: dict[str, Optional[str]] = field(default_factory=dict)
    #: Instance attributes assigned in methods: name -> class qualname.
    attr_types: dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False

    def field_names(self) -> list[str]:
        """Annotated field names in declaration order."""
        return list(self.field_types)


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str  # repro.sim.engine
    rel_name: str  # sim.engine ("" for the package root __init__)
    path: Path
    tree: ast.Module
    source_lines: list[str]
    #: alias -> module qualname or symbol qualname (all imports, any depth).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Top-level non-def statements (module constants and state).
    module_var_stmts: list[ast.stmt] = field(default_factory=list)


_PROPERTY_DECORATORS = {"property", "cached_property"}


@dataclass(frozen=True)
class TrackedClass:
    """A config/spec class whose fault-path reads REP010 taints."""

    name: str  # "GPUConfig"
    module: str  # package-relative: "sim.config"
    #: Receiver-name fallbacks when no annotation binds the receiver.
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class FlowConfig:
    """Analyzer boundary: entry points, exclusions, tracked identity.

    The default instance describes this repo; tests substitute fixture
    configurations to prove the rules fire without mutating ``src``.
    All module names are package-relative (``sim.engine``); patterns
    follow :func:`match_module`.
    """

    package: str = "repro"
    #: Every def in these modules seeds the fault-path closure.
    entry_modules: tuple[str, ...] = (
        "sim.engine",
        "policies.*",
        "tlb.*",
        "uvm.*",
        "workloads.*",
    )
    #: Modules outside the cached-behaviour boundary.  ``obs``/``check``
    #: runs bypass the result cache by design, ``resil`` affects
    #: execution but not results, and the harness/presentation layers
    #: never run inside a cached simulation.
    closure_exclude: tuple[str, ...] = (
        "obs.*",
        "check.*",
        "resil.*",
        "experiments.*",
        "analysis.*",
        "scenarios.registry",
        "scenarios.manifest",
        "cli",
        "__main__",
    )
    #: Package-relative qualnames that run inside supervised workers.
    worker_entries: tuple[str, ...] = (
        "resil.supervisor._worker_main",
        "experiments.runner._run_job",
    )
    tracked_classes: tuple[TrackedClass, ...] = (
        TrackedClass("GPUConfig", "sim.config",
                     aliases=("config", "gpu_config")),
        TrackedClass("HPEConfig", "core.hpe", aliases=("hpe_config",)),
        TrackedClass("ScenarioSpec", "scenarios.spec",
                     aliases=("spec", "cell", "scenario")),
    )
    #: (module, class, method) producing the one canonical identity.
    canonical_method: tuple[str, str, str] = (
        "scenarios.spec", "ScenarioSpec", "canonical",
    )
    #: Calls that serialise a whole dataclass into the identity — their
    #: argument's class counts as fully covered.
    cover_all_calls: tuple[str, ...] = ("stable_config_repr", "asdict")
    #: File (relative to the package root) carrying the integer
    #: ``CACHE_SCHEMA_VERSION`` constant.
    schema_file: str = "sim/cache.py"

    def full(self, rel: str) -> str:
        """Package-relative name -> full qualname."""
        return f"{self.package}.{rel}" if rel else self.package


#: The repo's own analyzer boundary.
DEFAULT_FLOW_CONFIG = FlowConfig()


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` text of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        text = _dotted(target)
        if text is not None:
            names.add(text.split(".")[-1])
    return names


class Program:
    """Every module of one package, cross-resolved."""

    def __init__(self, package: str, root: Path) -> None:
        self.package = package
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        #: Every function by qualname (top-level, methods, nested defs).
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Method name -> implementations (for duck-typed resolution).
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: Class qualname -> direct subclasses.
        self.subclasses: dict[str, list[str]] = {}

    # -- lookup helpers ---------------------------------------------------

    def module_of(self, qualname: str) -> Optional[ModuleInfo]:
        return self.modules.get(self.functions[qualname].module) \
            if qualname in self.functions else None

    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve dotted text in ``module``'s namespace to a qualname.

        The result may name a module, class, function, or class member
        of this program; ``None`` for builtins and external libraries.
        """
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        target: Optional[str] = None
        if head in module.imports:
            target = module.imports[head]
        elif head in module.functions:
            target = module.functions[head].qualname
        elif head in module.classes:
            target = module.classes[head].qualname
        elif dotted in self.modules:
            return dotted
        if target is None:
            return None
        for part in rest:
            if target in self.modules:
                inner = self.modules[target]
                if part in inner.functions:
                    target = inner.functions[part].qualname
                elif part in inner.classes:
                    target = inner.classes[part].qualname
                elif part in inner.imports:
                    target = inner.imports[part]
                else:
                    candidate = f"{target}.{part}"
                    if candidate in self.modules:
                        target = candidate
                    else:
                        return None
            elif target in self.classes:
                info = self.classes[target]
                if part in info.methods:
                    target = info.methods[part].qualname
                else:
                    return None
            else:
                candidate = f"{target}.{part}"
                if candidate in self.modules or candidate in self.classes \
                        or candidate in self.functions:
                    target = candidate
                else:
                    return None
        return target

    def resolve_class(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[ClassInfo]:
        """Resolve dotted text to a program class, if it names one."""
        qualname = self.resolve(module, dotted)
        if qualname is not None and qualname in self.classes:
            return self.classes[qualname]
        return None

    def resolve_annotation(
        self, module: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[ClassInfo]:
        """Program class named by an annotation, unwrapping Optional/str."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(
                    annotation.value, mode="eval"
                ).body
            except SyntaxError:
                return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            text = _dotted(annotation)
            return self.resolve_class(module, text) if text else None
        if isinstance(annotation, ast.Subscript):
            head = _dotted(annotation.value)
            if head and head.split(".")[-1] in {"Optional", "Union"}:
                inner = annotation.slice
                args = (
                    inner.elts if isinstance(inner, ast.Tuple) else [inner]
                )
                for arg in args:
                    resolved = self.resolve_annotation(module, arg)
                    if resolved is not None:
                        return resolved
        return None

    def ancestors(self, class_qualname: str) -> list[ClassInfo]:
        """The class and its transitive program-class bases (DFS order)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            out.append(info)
            stack.extend(info.bases)
        return out

    def descendants(self, class_qualname: str) -> list[ClassInfo]:
        """Transitive subclasses (excluding the class itself)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = list(self.subclasses.get(class_qualname, ()))
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(self.classes[current])
            stack.extend(self.subclasses.get(current, ()))
        return out

    def lookup_method(
        self, class_qualname: str, name: str, *, virtual: bool = True
    ) -> list[FunctionInfo]:
        """Method implementations reachable from a receiver of this class.

        Class-hierarchy analysis: the statically-known owner's
        definition (searching ancestors) plus — when ``virtual`` —
        every subclass override, because the concrete policy/TLB object
        behind an annotated receiver is chosen at runtime.
        """
        targets: dict[str, FunctionInfo] = {}
        for info in self.ancestors(class_qualname):
            if name in info.methods:
                targets[info.methods[name].qualname] = info.methods[name]
                break
        if virtual:
            for info in self.descendants(class_qualname):
                if name in info.methods:
                    targets[info.methods[name].qualname] = info.methods[name]
        return list(targets.values())


def _module_name(package: str, root: Path, path: Path) -> tuple[str, str]:
    """(full, package-relative) dotted module name of one source file."""
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    rel_name = ".".join(parts)
    full = package if not rel_name else f"{package}.{rel_name}"
    return full, rel_name


def _collect_imports(
    module_name: str, tree: ast.Module, package: str
) -> dict[str, str]:
    """alias -> qualname for every import statement, at any nesting."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: anchor at the enclosing package.
                anchor = module_name.split(".")
                anchor = anchor[: len(anchor) - node.level]
                base = ".".join(anchor + ([node.module]
                                          if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base \
                    else alias.name
    return imports


def _register_functions(
    program: Program,
    module: ModuleInfo,
    body: list[ast.stmt],
    prefix: str,
    owner: Optional[str],
) -> dict[str, FunctionInfo]:
    """Register defs in one scope; returns the name -> info map."""
    out: dict[str, FunctionInfo] = {}
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{stmt.name}"
            info = FunctionInfo(
                qualname=qualname,
                module=module.name,
                name=stmt.name,
                node=stmt,
                owner=owner,
                is_property=bool(
                    _decorator_names(stmt) & _PROPERTY_DECORATORS
                ),
            )
            # Later defs shadow earlier ones (e.g. @overload stubs).
            out[stmt.name] = info
            program.functions[qualname] = info
            program.methods_by_name.setdefault(stmt.name, []).append(info)
            # Nested defs become their own nodes (closures/factories).
            _register_functions(
                program, module, stmt.body, f"{qualname}.", None
            )
    return out


def _register_class(
    program: Program, module: ModuleInfo, node: ast.ClassDef
) -> ClassInfo:
    qualname = f"{module.name}.{node.name}"
    info = ClassInfo(
        qualname=qualname,
        module=module.name,
        name=node.name,
        node=node,
    )
    for base in node.bases:
        text = _dotted(base)
        if text is not None:
            info.base_names.append(text)
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        text = _dotted(target)
        if text and text.split(".")[-1] == "dataclass":
            info.is_dataclass = True
    info.methods = _register_functions(
        program, module, node.body, f"{qualname}.", qualname
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and isinstance(stmt.value.value, str):
            continue  # docstring
        info.class_var_stmts.append(stmt)
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            info.field_types[stmt.target.id] = None  # resolved later
    return info


def infer_expr_class(
    program: Program,
    module: ModuleInfo,
    expr: ast.expr,
    local_types: dict[str, str],
) -> Optional[str]:
    """Class qualname an expression evaluates to, where inferable.

    Handles constructor calls (``GPUConfig()``), names bound in
    ``local_types``, attribute chains through inferred instance
    attributes / annotated properties / dataclass fields, and
    ``a or b`` defaults (``config or GPUConfig()``).
    """
    if isinstance(expr, ast.Call):
        text = _dotted(expr.func)
        if text is not None:
            resolved = program.resolve_class(module, text)
            if resolved is not None:
                return resolved.qualname
        return None
    if isinstance(expr, (ast.Name, ast.Attribute)):
        text = _dotted(expr)
        if text is None:
            return None
        if text in local_types:
            return local_types[text]
        head, _, rest = text.partition(".")
        if not rest:
            return None
        owner = local_types.get(head)
        current = owner
        for part in rest.split("."):
            if current is None or current not in program.classes:
                return None
            current = _attribute_class(program, current, part)
        return current
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
        for value in expr.values:
            inferred = infer_expr_class(program, module, value, local_types)
            if inferred is not None:
                return inferred
    return None


def _attribute_class(
    program: Program, class_qualname: str, attr: str
) -> Optional[str]:
    """Class of ``<instance of class_qualname>.attr``, where inferable."""
    for info in program.ancestors(class_qualname):
        if attr in info.attr_types:
            return info.attr_types[attr]
        if attr in info.field_types and info.field_types[attr]:
            return info.field_types[attr]
        if attr in info.methods and info.methods[attr].is_property:
            returns = info.methods[attr].node.returns
            module = program.modules[info.module]
            resolved = program.resolve_annotation(module, returns)
            if resolved is not None:
                return resolved.qualname
    return None


def infer_receiver_types(
    program: Program, func: FunctionInfo
) -> dict[str, str]:
    """Dotted receiver text -> class qualname, for one function body.

    Seeds from parameter annotations (the strict-typing gate keeps the
    fault path fully annotated) and ``self``, then propagates through
    simple assignments in statement order.
    """
    module = program.modules[func.module]
    types: dict[str, str] = {}
    if func.owner is not None:
        types["self"] = func.owner
        types["cls"] = func.owner
    args = func.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        resolved = program.resolve_annotation(module, arg.annotation)
        if resolved is not None:
            types[arg.arg] = resolved.qualname
    for stmt in ast.walk(func.node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = _dotted(stmt.targets[0])
            if target is None:
                continue
            inferred = infer_expr_class(program, module, stmt.value, types)
            if inferred is not None:
                types[target] = inferred
        elif isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
            target = _dotted(stmt.target)
            if target is None:
                continue
            resolved = program.resolve_annotation(module, stmt.annotation)
            if resolved is not None:
                types[target] = resolved.qualname
    return types


def _infer_instance_attrs(program: Program, info: ClassInfo) -> None:
    """Populate ``info.attr_types`` from ``self.X = ...`` assignments."""
    for method in info.methods.values():
        types = infer_receiver_types(program, method)
        module = program.modules[info.module]
        for stmt in ast.walk(method.node):
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            inferred = infer_expr_class(program, module, stmt.value, types)
            if inferred is not None and target.attr not in info.attr_types:
                info.attr_types[target.attr] = inferred


def iter_source_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file of the package rooted at ``root``, sorted."""
    yield from sorted(root.rglob("*.py"))


def load_program(root: Path, package: str = "repro") -> Program:
    """Parse every module under ``root`` and cross-resolve the package."""
    program = Program(package, root)
    for path in iter_source_files(root):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue  # the lint pass reports REP000 for these
        full, rel_name = _module_name(package, root, path)
        module = ModuleInfo(
            name=full,
            rel_name=rel_name,
            path=path,
            tree=tree,
            source_lines=source.splitlines(),
        )
        module.imports = _collect_imports(full, tree, package)
        module.functions = _register_functions(
            program, module, tree.body, f"{full}.", None
        )
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = _register_class(program, module, stmt)
                module.classes[stmt.name] = info
                program.classes[info.qualname] = info
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ) and isinstance(stmt.value.value, str):
                continue  # module docstring
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                module.module_var_stmts.append(stmt)
        program.modules[full] = module
    # Second pass: resolve bases, dataclass field types, instance attrs.
    for module in program.modules.values():
        for info in module.classes.values():
            for base_name in info.base_names:
                resolved = program.resolve(module, base_name)
                if resolved is not None and resolved in program.classes:
                    info.bases.append(resolved)
                    program.subclasses.setdefault(resolved, []).append(
                        info.qualname
                    )
            for stmt in info.class_var_stmts:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    resolved_cls = program.resolve_annotation(
                        module, stmt.annotation
                    )
                    info.field_types[stmt.target.id] = (
                        resolved_cls.qualname if resolved_cls else None
                    )
    for info in program.classes.values():
        _infer_instance_attrs(program, info)
    return program
