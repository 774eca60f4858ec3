"""Custom AST lint pass (``repro lint``) — repo-specific correctness rules.

Generic linters cannot know that this simulator's reproducibility rests
on a handful of local conventions, so this pass encodes them directly:

======== ==============================================================
Code     Rule
======== ==============================================================
REP001   No unseeded randomness: ``random.Random()`` without a seed and
         module-level ``random.*`` calls (which share interpreter-global
         state) are forbidden; construct ``random.Random(seed)``.
REP002   No mutable default arguments (``def f(x=[])`` aliases one list
         across calls — use ``None`` + ``field(default_factory=...)``).
REP003   Every direct ``EvictionPolicy`` subclass must define both
         ``on_page_in`` and ``select_victim`` in its own body; relying
         on inheritance hides an incomplete policy until runtime.
REP004   Observability calls (``*.obs.emit`` / ``obs.emit``) must sit
         under the single ``is not None`` guard pattern so the fault
         path stays one pointer check when observation is off.
REP005   No float ``==`` / ``!=`` against float literals — metric
         comparisons must use tolerances or integer counters.
REP006   The pickled result-cache dataclasses (``SimulationResult``,
         ``DriverStats``, ``HIRStats``) are fingerprinted per
         ``CACHE_SCHEMA_VERSION``; changing their fields without
         bumping the version would let stale cache pickles load.
REP007   No raw atomic-rename plumbing (``os.replace`` / ``os.rename``
         / ``tempfile.mkstemp``) outside :mod:`repro.resil.atomic` —
         every persistent write must go through the one blessed
         fsync'd, checksummed implementation so crash-safety is
         provable in a single place.
REP008   No hand-rolled canonical identity strings: a ``"|".join``
         whose parts carry spec-identity prefixes (``schema=``,
         ``family=``, ``policy=``, ...) outside
         :mod:`repro.scenarios.spec` re-creates the three-hash drift
         bug that module exists to end — derive the hash from
         ``ScenarioSpec.canonical()`` / ``MatrixSpec.canonical()``.
REP009   Fault-path closure fingerprints (``hpe-repro flow
         staleness``): see :mod:`repro.check.flow.fingerprint`.
REP010   Spec-coverage taint — config/spec fields read on the fault
         path must enter ``ScenarioSpec.canonical()``: see
         :mod:`repro.check.flow.rules`.
REP011   No module-global rebinds reachable from supervised-worker
         entry points: see :mod:`repro.check.flow.rules`.
REP012   No wall-clock / ``os.environ`` / module-level-RNG /
         unordered-set-iteration hazards on the fault path: see
         :mod:`repro.check.flow.rules`.
REP013   No stale suppressions: a ``# noqa`` / ``# noqa: REPxxx``
         comment that suppresses nothing must be removed — dead
         suppressions hide the next real finding on that line.
======== ==============================================================

REP010–REP012 are whole-program rules computed by the flow analyzer
(:mod:`repro.check.flow`) and folded into :func:`run_lint` whenever the
linted files include the installed package.

Suppression: append ``# noqa`` or ``# noqa: REP00x`` to the flagged
line.  The pass is pure :mod:`ast` — nothing is imported or executed, so
it lints files that do not even import cleanly.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Module-level ``random.*`` functions that mutate the shared global RNG.
_GLOBAL_RNG_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "triangular",
}

#: Receiver name tails treated as observation handles for REP004.
_OBS_NAMES = {"obs", "_obs"}

#: ``name:annotation`` field fingerprints of the cache-pickled
#: dataclasses, keyed by the ``CACHE_SCHEMA_VERSION`` they belong to.
#: When a field list changes, the computed fingerprint stops matching
#: and REP006 fires until the version is bumped *and* this table gains
#: the new row — making "bump the schema version" a reviewable diff.
CACHE_FINGERPRINTS: dict[int, dict[str, str]] = {
    2: {
        "SimulationResult": "1f9e70077f183cbbacab3608373573f7",
        "DriverStats": "abc847a51741580eb5fc7f7a23e581a4",
        "HIRStats": "b9cb92bd0f4dace77a34b7ab5af36749",
    },
    # v3 changed prefetch-migration ordering, not any pickled shape.
    3: {
        "SimulationResult": "1f9e70077f183cbbacab3608373573f7",
        "DriverStats": "abc847a51741580eb5fc7f7a23e581a4",
        "HIRStats": "b9cb92bd0f4dace77a34b7ab5af36749",
    },
    # v4 moved the canonical identity string to ScenarioSpec.canonical()
    # (gained family/params fields); the pickled shapes are unchanged.
    4: {
        "SimulationResult": "1f9e70077f183cbbacab3608373573f7",
        "DriverStats": "abc847a51741580eb5fc7f7a23e581a4",
        "HIRStats": "b9cb92bd0f4dace77a34b7ab5af36749",
    },
}

#: Where the fingerprinted dataclasses live, relative to ``src/repro``.
_CACHED_DATACLASSES = {
    "SimulationResult": "sim/results.py",
    "DriverStats": "uvm/driver.py",
    "HIRStats": "core/hir.py",
}

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.I)

#: A *directive* is a comment that starts with the noqa marker (the
#: suppression check above searches anywhere; the staleness audit must
#: not fire on prose that merely mentions "# noqa").
_NOQA_DIRECTIVE_RE = re.compile(
    r"^#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.I
)

#: Codes this pass owns; foreign codes (flake8's BLE001, F401, ...)
#: belong to other tools and are never audited for staleness.
_REP_CODE_RE = re.compile(r"^REP\d{3}$")

#: Rules not enforced in test files: tests assert exact float values on
#: deterministic outputs on purpose, construct observations whose
#: non-None-ness the test itself established, and may write scratch
#: files without the atomic-persistence discipline.
_RELAXED_IN_TESTS = {"REP004", "REP005", "REP007"}

#: Calls REP007 forbids outside the blessed module.
_RAW_PERSISTENCE_CALLS = {"os.replace", "os.rename", "tempfile.mkstemp"}

#: Key prefixes that mark a ``"|".join`` as a canonical identity string
#: for REP008.  Two or more of these in one join is the spec-string
#: idiom; one alone (e.g. a progress line) is not flagged.
_CANONICAL_PREFIXES = (
    "schema=", "journal-schema=", "cache-schema=", "family=",
    "workload=", "policy=", "policies=", "app=", "apps=", "rate=",
    "rates=",
)


def _is_test_file(path: str) -> bool:
    parts = Path(path).parts
    return "tests" in parts or Path(path).name.startswith("test_")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _literal_prefix(node: ast.AST) -> str:
    """Leading literal text of a string constant or f-string, else ``""``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if (
        isinstance(node, ast.JoinedStr)
        and node.values
        and isinstance(node.values[0], ast.Constant)
        and isinstance(node.values[0].value, str)
    ):
        return node.values[0].value
    return ""


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` text of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in {
            "list", "dict", "set", "bytearray", "defaultdict", "deque",
        }
    return False


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """Does this block unconditionally leave the enclosing scope/loop?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _none_test(test: ast.expr, receiver: str) -> Optional[str]:
    """Classify ``test`` against ``receiver``: 'is-not', 'is', or None."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and _dotted(test.left) == receiver
    ):
        if isinstance(test.ops[0], ast.IsNot):
            return "is-not"
        if isinstance(test.ops[0], ast.Is):
            return "is"
    return None


class _FileLinter(ast.NodeVisitor):
    """Single-file REP001–REP005, REP007, REP008 visitor.

    The tree is walked once with a parent map so REP004 can climb from an
    ``emit`` call to its guarding ``if``.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: list[LintFinding] = []
        #: Findings silenced by a noqa — kept so the staleness audit
        #: and ``--statistics`` know what each suppression actually did.
        self.suppressed: list[LintFinding] = []
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- reporting -------------------------------------------------------

    def _suppressed(self, line: int, code: str) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True  # bare "# noqa" silences everything on the line
        return code.upper() in {c.strip().upper() for c in codes.split(",")}

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        finding = LintFinding(
            code=code,
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
        if self._suppressed(line, code):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)

    # -- REP001: seeded randomness only ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = _dotted(node.func)
        if target == "random.Random" and not node.args and not node.keywords:
            self._report(
                node, "REP001",
                "unseeded random.Random() — pass an explicit seed",
            )
        elif (
            target is not None
            and target.startswith("random.")
            and target.split(".", 1)[1] in _GLOBAL_RNG_FUNCS
        ):
            self._report(
                node, "REP001",
                f"module-level {target}() uses shared global RNG state; "
                "use a seeded random.Random instance",
            )
        self._check_obs_guard(node)
        self._check_raw_persistence(node, target)
        self._check_canonical_join(node)
        self.generic_visit(node)

    # -- REP007: atomic persistence goes through resil.atomic -------------

    def _check_raw_persistence(
        self, node: ast.Call, target: Optional[str]
    ) -> None:
        if target not in _RAW_PERSISTENCE_CALLS:
            return
        posix = Path(self.path).as_posix()
        if posix.endswith("resil/atomic.py"):
            return  # the blessed implementation itself
        self._report(
            node, "REP007",
            f"raw {target}() — persistent writes must go through "
            "repro.resil.atomic (atomic_write_*) so "
            "fsync + checksum discipline stays in one place",
        )

    # -- REP008: canonical spec strings come from repro.scenarios.spec ----

    def _check_canonical_join(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and isinstance(func.value, ast.Constant)
            and func.value.value == "|"
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.List, ast.Tuple))
        ):
            return
        posix = Path(self.path).as_posix()
        if posix.endswith("scenarios/spec.py"):
            return  # the one blessed canonical-form implementation
        hits = sum(
            1
            for element in node.args[0].elts
            if _literal_prefix(element).startswith(_CANONICAL_PREFIXES)
        )
        if hits >= 2:
            self._report(
                node, "REP008",
                "hand-rolled canonical identity string — derive hashes "
                "from ScenarioSpec.canonical() / MatrixSpec.canonical() "
                "(repro.scenarios.spec) so every identity normalises "
                "the same way",
            )

    # -- REP002: mutable default arguments --------------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None and _is_mutable_literal(default):
                self._report(
                    default, "REP002",
                    f"mutable default argument in {node.name}() is shared "
                    "across calls; default to None instead",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- REP003: complete policy interfaces -------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = {_dotted(base) for base in node.bases}
        if bases & {"EvictionPolicy", "base.EvictionPolicy"}:
            defined = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for required in ("on_page_in", "select_victim"):
                if required not in defined:
                    self._report(
                        node, "REP003",
                        f"policy {node.name} does not define {required}(); "
                        "every EvictionPolicy subclass must implement both "
                        "abstract methods itself",
                    )
        self.generic_visit(node)

    # -- REP004: the single obs guard pattern -----------------------------

    def _check_obs_guard(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return
        receiver = _dotted(func.value)
        if receiver is None:
            return
        if receiver.split(".")[-1] not in _OBS_NAMES:
            return
        if self._obs_guarded(node, receiver):
            return
        self._report(
            node, "REP004",
            f"{receiver}.emit() outside an `if {receiver} is not None:` "
            "guard — observation must stay one pointer check when off",
        )

    def _obs_guarded(self, node: ast.Call, receiver: str) -> bool:
        child: ast.AST = node
        parent = self._parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.If):
                kind = _none_test(parent.test, receiver)
                in_body = any(child is stmt or self._contains(stmt, child)
                              for stmt in parent.body)
                if kind == "is-not" and in_body:
                    return True
                if kind == "is" and not in_body:
                    return True  # else-branch of `if obs is None:`
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Helper pattern: the obs handle is a parameter, checked
                # at every call site (e.g. HPE._snapshot_interval).
                params = {a.arg for a in (*parent.args.posonlyargs,
                                          *parent.args.args,
                                          *parent.args.kwonlyargs)}
                if receiver in params:
                    return True
                # Early-exit pattern: `if obs is None: return` earlier in
                # the same function body.
                for stmt in parent.body:
                    if stmt.lineno >= node.lineno:
                        break
                    if (
                        isinstance(stmt, ast.If)
                        and _none_test(stmt.test, receiver) == "is"
                        and _terminates(stmt.body)
                    ):
                        return True
                return False
            child, parent = parent, self._parents.get(parent)
        return False

    @staticmethod
    def _contains(root: ast.AST, target: ast.AST) -> bool:
        return any(n is target for n in ast.walk(root))

    # -- REP005: no float equality ----------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in operands
            ):
                self._report(
                    right, "REP005",
                    "float equality comparison — use math.isclose or an "
                    "explicit tolerance",
                )
                break
        self.generic_visit(node)


@dataclass(frozen=True)
class NoqaDirective:
    """One ``# noqa`` comment: where it is and what it claims to silence."""

    path: str
    line: int
    col: int
    #: Upper-cased codes after the colon; ``None`` for a bare ``# noqa``.
    codes: Optional[frozenset[str]]

    def auditable(self) -> bool:
        """Is this pass entitled to judge the directive's staleness?

        Bare directives and all-REP directives are ours; anything
        carrying a foreign code (flake8 etc.) is another tool's
        business.
        """
        if self.codes is None:
            return True
        return all(_REP_CODE_RE.match(code) for code in self.codes)


def scan_noqa_directives(path: str, source: str) -> list[NoqaDirective]:
    """Every comment *starting* with the noqa marker, via tokenize.

    Tokenizing (rather than regexing lines) keeps string literals and
    docstrings that merely mention ``# noqa`` out of the audit.
    """
    out: list[NoqaDirective] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_DIRECTIVE_RE.match(tok.string)
            if match is None:
                continue
            codes_text = match.group("codes")
            codes = (
                frozenset(
                    c.strip().upper()
                    for c in codes_text.split(",")
                    if c.strip()
                )
                if codes_text is not None
                else None
            )
            out.append(
                NoqaDirective(
                    path=path,
                    line=tok.start[0],
                    col=tok.start[1] + 1,
                    codes=codes,
                )
            )
    except tokenize.TokenizeError:
        pass  # REP000 already covers files that do not parse
    return out


@dataclass
class FileLintReport:
    """Per-file rule results plus the inputs the noqa audit needs."""

    findings: list[LintFinding] = field(default_factory=list)
    suppressed: list[LintFinding] = field(default_factory=list)
    directives: list[NoqaDirective] = field(default_factory=list)


def lint_source_report(path: str, source: str) -> FileLintReport:
    """Per-file rules (REP001–REP005, REP007, REP008) over one file."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileLintReport(findings=[
            LintFinding(
                code="REP000",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            )
        ])
    linter = _FileLinter(path, source, tree)
    linter.visit(tree)
    findings, suppressed = linter.findings, linter.suppressed
    if _is_test_file(path):
        findings = [f for f in findings if f.code not in _RELAXED_IN_TESTS]
        suppressed = [f for f in suppressed
                      if f.code not in _RELAXED_IN_TESTS]
    return FileLintReport(
        findings=findings,
        suppressed=suppressed,
        directives=scan_noqa_directives(path, source),
    )


def lint_source(path: str, source: str) -> list[LintFinding]:
    """Run the per-file rules over one file's source text."""
    return lint_source_report(path, source).findings


def lint_file(path: Path) -> list[LintFinding]:
    """Lint one file from disk."""
    return lint_source(str(path), path.read_text(encoding="utf-8"))


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories named ``fixtures`` are skipped: they hold deliberately
    rule-violating corpora for the lint tests, not shipped code.
    """
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(
                f for f in path.rglob("*.py")
                if "fixtures" not in f.relative_to(path).parts
            )
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


# -- REP006: cache schema fingerprints ------------------------------------


def dataclass_fingerprint(tree: ast.Module, class_name: str) -> Optional[str]:
    """32-hex-char digest of a dataclass's ordered ``name:annotation`` list.

    AST-only on purpose: importing the module would execute it, and the
    fingerprint must not depend on runtime state.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = [
                f"{stmt.target.id}:{ast.unparse(stmt.annotation)}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
            blob = ";".join(fields).encode("utf-8")
            return hashlib.sha256(blob).hexdigest()[:32]
    return None


def _read_schema_version(cache_py: Path) -> Optional[int]:
    tree = ast.parse(cache_py.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "CACHE_SCHEMA_VERSION"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return node.value.value
    return None


def current_fingerprints(package_root: Path) -> dict[str, Optional[str]]:
    """Compute the live fingerprint of each cache-pickled dataclass."""
    out: dict[str, Optional[str]] = {}
    for name, rel in _CACHED_DATACLASSES.items():
        source_file = package_root / rel
        if not source_file.exists():
            out[name] = None
            continue
        tree = ast.parse(source_file.read_text(encoding="utf-8"))
        out[name] = dataclass_fingerprint(tree, name)
    return out


def check_cache_schema(package_root: Path) -> list[LintFinding]:
    """REP006: cached dataclass changes require a schema version bump."""
    cache_py = package_root / "sim" / "cache.py"
    if not cache_py.exists():
        return []
    version = _read_schema_version(cache_py)
    if version is None:
        return [
            LintFinding(
                "REP006", str(cache_py), 1, 1,
                "CACHE_SCHEMA_VERSION not found as an integer constant",
            )
        ]
    expected = CACHE_FINGERPRINTS.get(version)
    if expected is None:
        return [
            LintFinding(
                "REP006", str(cache_py), 1, 1,
                f"CACHE_SCHEMA_VERSION={version} has no fingerprint row in "
                "repro/check/lint.py CACHE_FINGERPRINTS — record the new "
                "schema (repro lint --fingerprints prints it)",
            )
        ]
    findings: list[LintFinding] = []
    for name, fingerprint in current_fingerprints(package_root).items():
        want = expected.get(name)
        if fingerprint is None:
            findings.append(
                LintFinding(
                    "REP006", str(package_root / _CACHED_DATACLASSES[name]),
                    1, 1, f"cached dataclass {name} not found",
                )
            )
        elif fingerprint != want:
            findings.append(
                LintFinding(
                    "REP006", str(package_root / _CACHED_DATACLASSES[name]),
                    1, 1,
                    f"fields of pickled dataclass {name} changed "
                    f"(fingerprint {fingerprint}, schema v{version} expects "
                    f"{want}); bump CACHE_SCHEMA_VERSION and add a "
                    "CACHE_FINGERPRINTS row",
                )
            )
    return findings


def default_package_root() -> Path:
    """``src/repro`` as installed — the directory containing this package."""
    return Path(__file__).resolve().parents[1]


@dataclass
class LintReport:
    """Everything one lint run learned, beyond the findings list."""

    findings: list[LintFinding] = field(default_factory=list)
    suppressed: list[LintFinding] = field(default_factory=list)
    directives: list[NoqaDirective] = field(default_factory=list)

    def statistics(self) -> dict[str, tuple[int, int]]:
        """code -> (active findings, suppressed findings), sorted."""
        codes = sorted(
            {f.code for f in self.findings}
            | {f.code for f in self.suppressed}
        )
        return {
            code: (
                sum(1 for f in self.findings if f.code == code),
                sum(1 for f in self.suppressed if f.code == code),
            )
            for code in codes
        }

    def render_statistics(self) -> list[str]:
        """``--statistics`` table lines."""
        stats = self.statistics()
        out = [f"{'rule':8s} {'findings':>8s} {'suppressed':>10s}"]
        for code, (active, silenced) in stats.items():
            out.append(f"{code:8s} {active:8d} {silenced:10d}")
        out.append(
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppression(s), "
            f"{len(self.directives)} noqa directive(s)"
        )
        return out


def _stale_noqa_findings(
    directives: Iterable[NoqaDirective],
    suppressed: Iterable[LintFinding],
) -> list[LintFinding]:
    """REP013: directives whose line silences no finding of this pass."""
    silenced_at: dict[tuple[Path, int], set[str]] = {}
    for finding in suppressed:
        key = (Path(finding.path).resolve(), finding.line)
        silenced_at.setdefault(key, set()).add(finding.code)
    out: list[LintFinding] = []
    for directive in directives:
        if not directive.auditable():
            continue
        codes_here = silenced_at.get(
            (Path(directive.path).resolve(), directive.line), set()
        )
        if directive.codes is None:
            if codes_here:
                continue
            detail = "bare `# noqa`"
        else:
            if directive.codes & codes_here:
                continue
            detail = f"`# noqa: {', '.join(sorted(directive.codes))}`"
        out.append(
            LintFinding(
                code="REP013",
                path=directive.path,
                line=directive.line,
                col=directive.col,
                message=f"stale {detail} — it suppresses nothing on "
                        "this line; remove it so it cannot mask the "
                        "next real finding",
            )
        )
    return out


def run_lint_report(
    paths: Optional[Sequence[Path]] = None,
    *,
    include_schema_check: bool = True,
    include_flow: bool = True,
) -> LintReport:
    """Lint ``paths`` (default: the whole ``repro`` package).

    Adds REP006 (cache schema), the whole-program flow rules
    REP010–REP012 when the linted files include the installed package,
    and the REP013 stale-noqa audit over every linted file.
    """
    root = default_package_root()
    targets = [Path(p) for p in paths] if paths else [root]
    report = LintReport()
    files = iter_python_files(targets)
    for file in files:
        file_report = lint_source_report(
            str(file), file.read_text(encoding="utf-8")
        )
        report.findings.extend(file_report.findings)
        report.suppressed.extend(file_report.suppressed)
        report.directives.extend(file_report.directives)
    if include_schema_check:
        report.findings.extend(check_cache_schema(root))
    resolved_root = root.resolve()
    if include_flow and any(
        file.resolve().is_relative_to(resolved_root) for file in files
    ):
        # Imported lazily: repro.check.flow imports this module.
        from repro.check import flow

        analysis = flow.analyze(package_root=root)
        active, silenced = flow.run_flow_rules_report(analysis)
        report.findings.extend(active)
        report.suppressed.extend(silenced)
    report.findings.extend(
        _stale_noqa_findings(report.directives, report.suppressed)
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    *,
    include_schema_check: bool = True,
    include_flow: bool = True,
) -> list[LintFinding]:
    """Lint ``paths`` (default: the whole ``repro`` package)."""
    return run_lint_report(
        paths,
        include_schema_check=include_schema_check,
        include_flow=include_flow,
    ).findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.check.lint [--fingerprints] [--statistics]
    [paths...]``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "--fingerprints" in args:
        for name, fingerprint in current_fingerprints(
            default_package_root()
        ).items():
            print(f"{name}: {fingerprint}")
        return 0
    statistics = "--statistics" in args
    args = [a for a in args if a != "--statistics"]
    report = run_lint_report([Path(a) for a in args] or None)
    for finding in report.findings:
        print(finding.render())
    if statistics:
        for line in report.render_statistics():
            print(line)
    if report.findings:
        print(f"{len(report.findings)} problem(s) found")
        return 1
    if not statistics:
        print("repro lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
