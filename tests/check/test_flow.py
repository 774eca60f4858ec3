"""Flow analyzer tests: closure, fingerprints (REP009), and flow rules.

The mutation tests copy the installed ``repro`` package into a tmp
tree, apply a targeted edit, and re-analyze the copy against the real
pinned manifest — proving the gate fails exactly when a fault-path
function changes behaviour without a ``CACHE_SCHEMA_VERSION`` bump,
and that a new spec field read on the fault path trips REP010.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import repro
from repro.check import flow

SRC_ROOT = Path(repro.__file__).resolve().parent


def _copy_package(tmp_path: Path) -> Path:
    dst = tmp_path / "repro"
    shutil.copytree(
        SRC_ROOT, dst, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dst


def _edit(path: Path, old: str, new: str, count: int = 0) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor not found in {path.name}: {old!r}"
    path.write_text(
        text.replace(old, new) if count == 0
        else text.replace(old, new, count),
        encoding="utf-8",
    )


# -- the pinned manifest is the acceptance gate ----------------------------


def test_staleness_passes_on_pinned_manifest() -> None:
    report = flow.check_staleness(flow.analyze())
    assert report.ok, "\n".join(report.lines())


def test_flow_rules_clean_on_repo() -> None:
    assert flow.run_flow_rules(flow.analyze()) == []


def test_closure_covers_sim_and_excludes_harness() -> None:
    analysis = flow.analyze()
    modules = {
        analysis.program.functions[q].module for q in analysis.closure
    }
    for expected in ("repro.sim.engine", "repro.policies.lru",
                     "repro.tlb.tlb", "repro.uvm.driver",
                     "repro.core.hpe"):
        assert expected in modules, expected
    for excluded in ("repro.obs", "repro.check", "repro.resil",
                     "repro.experiments", "repro.cli"):
        assert not any(m.startswith(excluded) for m in modules), excluded


def test_staleness_fails_on_fault_path_mutation(tmp_path: Path) -> None:
    """REP009: a behaviour edit in engine.run without a schema bump."""
    dst = _copy_package(tmp_path)
    _edit(
        dst / "sim" / "engine.py",
        "cycles = self._replay_fast(trace)",
        "cycles = self._replay_fast(trace) + 1",
    )
    report = flow.check_staleness(flow.analyze(package_root=dst))
    assert not report.ok
    assert "repro.sim.engine.UVMSimulator.run" in report.changed
    text = "\n".join(report.lines())
    assert "CACHE_SCHEMA_VERSION" in text
    assert "hpe-repro flow pin" in text


def test_staleness_reports_schema_bump_path(tmp_path: Path) -> None:
    """A schema bump changes the message: re-pin, not bump-first."""
    dst = _copy_package(tmp_path)
    _edit(
        dst / "sim" / "cache.py",
        "CACHE_SCHEMA_VERSION = 4",
        "CACHE_SCHEMA_VERSION = 5",
    )
    report = flow.check_staleness(flow.analyze(package_root=dst))
    assert not report.ok
    assert report.current.cache_schema_version == 5
    assert "v4 -> v5" in "\n".join(report.lines())


def test_comment_and_docstring_edits_do_not_trip_staleness(
    tmp_path: Path,
) -> None:
    """The hashes are normalized: prose churn must not force re-pins."""
    dst = _copy_package(tmp_path)
    engine = dst / "sim" / "engine.py"
    _edit(
        engine,
        '"""Build a simulator from a scenario spec\'s machine parameters.',
        '"""Entirely different docstring.',
    )
    text = engine.read_text(encoding="utf-8")
    engine.write_text(
        text.replace(
            "        started = time.monotonic()",
            "        # an extra comment line\n"
            "        started = time.monotonic()",
        ),
        encoding="utf-8",
    )
    report = flow.check_staleness(flow.analyze(package_root=dst))
    assert report.ok, "\n".join(report.lines())


def test_constants_are_fingerprinted(tmp_path: Path) -> None:
    """Module-level tuning constants are behaviour: pseudo-node hashes."""
    dst = _copy_package(tmp_path)
    _edit(
        dst / "core" / "hir.py",
        "ENTRY_BYTES = ",
        "ENTRY_BYTES = 1 + ",
        count=1,
    )
    report = flow.check_staleness(flow.analyze(package_root=dst))
    assert not report.ok
    assert "repro.core.hir.__constants__" in report.changed


def test_rep010_fires_on_unhashed_spec_field(tmp_path: Path) -> None:
    """A new ScenarioSpec field read on the fault path but absent from
    canonical() must trip the spec-coverage taint."""
    dst = _copy_package(tmp_path)
    _edit(
        dst / "scenarios" / "spec.py",
        "    prefetch_degree: int = 0",
        "    prefetch_degree: int = 0\n    page_size_kb: int = 4",
    )
    _edit(
        dst / "sim" / "engine.py",
        "        return cls(\n            policy,",
        "        _ = spec.page_size_kb\n"
        "        return cls(\n            policy,",
    )
    analysis = flow.analyze(package_root=dst)
    findings = flow.run_flow_rules(analysis)
    rep010 = [f for f in findings if f.code == "REP010"]
    assert rep010, findings
    assert any("page_size_kb" in f.message for f in rep010)
    assert all(f.path.endswith("sim/engine.py") for f in rep010)


def test_rep010_silent_once_field_enters_canonical(tmp_path: Path) -> None:
    """The same field is fine once canonical() hashes it."""
    dst = _copy_package(tmp_path)
    _edit(
        dst / "scenarios" / "spec.py",
        "    prefetch_degree: int = 0",
        "    prefetch_degree: int = 0\n    page_size_kb: int = 4",
    )
    _edit(
        dst / "sim" / "engine.py",
        "        return cls(\n            policy,",
        "        _ = spec.page_size_kb\n"
        "        return cls(\n            policy,",
    )
    _edit(
        dst / "scenarios" / "spec.py",
        'f"prefetch={self.prefetch_degree}",',
        'f"prefetch={self.prefetch_degree}",\n'
        '            f"page_size_kb={self.page_size_kb}",',
        count=1,
    )
    findings = flow.run_flow_rules(flow.analyze(package_root=dst))
    assert not [f for f in findings if f.code == "REP010"], findings


# -- normalized hashing unit tests -----------------------------------------


def _hash_of(source: str) -> str:
    node = ast.parse(source).body[0]
    return flow.normalized_hash(node)


def test_normalized_hash_ignores_docstrings_and_position() -> None:
    a = _hash_of('def f():\n    """doc"""\n    return 1\n')
    b = _hash_of('\n\ndef f():\n    return 1\n')
    assert a == b


def test_normalized_hash_sees_body_changes() -> None:
    a = _hash_of("def f():\n    return 1\n")
    b = _hash_of("def f():\n    return 2\n")
    assert a != b


def test_numpy_global_rng_flagged(tmp_path: Path) -> None:
    """REP012's unseeded-numpy branch, on a minimal tree."""
    pkg = tmp_path / "rngpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "engine.py").write_text(
        "import numpy as np\n\n\n"
        "def run(n: int) -> object:\n"
        "    rng = np.random.default_rng(7)\n"
        "    noise = np.random.rand(n)\n"
        "    return rng, noise\n"
    )
    config = flow.FlowConfig(
        package="rngpkg",
        entry_modules=("engine",),
        closure_exclude=(),
        worker_entries=(),
        tracked_classes=(),
        canonical_method=("spec", "Spec", "canonical"),
        schema_file="cache.py",
    )
    analysis = flow.analyze(package_root=pkg, config=config)
    findings = flow.run_flow_rules(analysis)
    assert [f.code for f in findings] == ["REP012"]
    assert "np.random.rand" in findings[0].message


def test_manifest_round_trips(tmp_path: Path) -> None:
    analysis = flow.analyze()
    manifest_path = tmp_path / "manifest.json"
    pinned = flow.pin_manifest(analysis, manifest_path)
    loaded = flow.load_manifest(manifest_path)
    assert loaded is not None
    assert loaded.closure_digest == pinned.closure_digest
    assert loaded.functions == pinned.functions
    assert loaded.cache_schema_version == pinned.cache_schema_version
    report = flow.check_staleness(analysis, manifest_path)
    assert report.ok
