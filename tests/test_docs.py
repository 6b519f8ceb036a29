"""Docs lint: the documentation may not drift from the code.

* docs/PROTOCOL.md must have exactly one ``####``-level section per
  message type registered in ``repro.serve.protocol.MESSAGE_TYPES`` —
  both directions: an undocumented type fails, and so does a documented
  type the code no longer speaks.
* Each such section's JSON example must decode to that type's frame and
  name every field of the frame class — the spec's field lists.
* Every ``ERROR_CODES`` entry must appear in PROTOCOL.md's error table.
* Every relative link in docs/*.md must resolve inside the repo.
* The public surfaces docs/API.md indexes (repro.dynamic, repro.shard,
  repro.serve, repro.faults, repro.obs, repro.decomposition.minhash)
  must be fully docstringed — API.md promises that.
* Code references in DESIGN.md, EXPERIMENTS.md and docs/*.md must name
  code that exists: every ``Class.attr`` whose class is defined in
  ``repro`` names a method, property, field or ``self.`` attribute of
  that class (or of a ``repro`` base class), and every ``path.py:name``
  names a top-level definition, or a method of a top-level class, of
  ``src/repro/<path>`` or of ``<path>`` under the repo root (``tests/``).
* Every repo path a CI step names, and every module-level ``Path``
  constant of ``benchmarks/bench_*.py``, must exist: a moved file
  otherwise fails only when that CI job or bench runs.
"""

import ast
import dataclasses
import functools
import inspect
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.serve import protocol as wire

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
PROTOCOL_MD = DOCS / "PROTOCOL.md"
SRC = REPO / "src" / "repro"
CODE_DOCS = [REPO / "DESIGN.md", REPO / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))]
CI_YML = REPO / ".github" / "workflows" / "ci.yml"
BENCHMARKS = REPO / "benchmarks"


def protocol_headings() -> list[str]:
    text = PROTOCOL_MD.read_text()
    return re.findall(r"^#### `([a-z_]+)`\s*$", text, flags=re.M)


def protocol_examples() -> dict[str, str | None]:
    """Heading → the first ```json block of its ``#### `type``` section."""
    parts = re.split(r"^#### `([a-z_]+)`\s*$", PROTOCOL_MD.read_text(), flags=re.M)
    out = {}
    for kind, body in zip(parts[1::2], parts[2::2]):
        block = re.search(r"^```json\n(.*?)^```", body, flags=re.M | re.S)
        out[kind] = block and block.group(1)
    return out


class TestProtocolSpec:
    def test_every_registered_type_is_documented(self):
        missing = set(wire.MESSAGE_TYPES) - set(protocol_headings())
        assert not missing, (
            f"message types missing a '#### `type`' section in "
            f"docs/PROTOCOL.md: {sorted(missing)}"
        )

    def test_every_documented_type_is_registered(self):
        stale = set(protocol_headings()) - set(wire.MESSAGE_TYPES)
        assert not stale, (
            f"docs/PROTOCOL.md documents types the registry does not "
            f"speak: {sorted(stale)}"
        )

    def test_no_duplicate_sections(self):
        headings = protocol_headings()
        assert len(headings) == len(set(headings))

    @pytest.mark.parametrize("kind", sorted(wire.MESSAGE_TYPES))
    def test_example_decodes_and_names_every_field(self, kind):
        example = protocol_examples().get(kind)
        assert example, f"docs/PROTOCOL.md: `{kind}` has no JSON example"
        frame = wire.decode_payload(example.encode())
        assert type(frame) is wire.MESSAGE_TYPES[kind]
        fields = {f.name for f in dataclasses.fields(frame)}
        named = set(json.loads(example)) - {"type"}
        assert named == fields, (
            f"docs/PROTOCOL.md `{kind}` example: missing {sorted(fields - named)}, "
            f"unknown {sorted(named - fields)}"
        )

    def test_every_error_code_is_documented(self):
        text = PROTOCOL_MD.read_text()
        table = text[text.index("## Errors"):]
        for code in wire.ERROR_CODES:
            assert f"`{code}`" in table, (
                f"error code {code!r} missing from docs/PROTOCOL.md's "
                f"error table"
            )

    def test_documented_version_matches(self):
        text = PROTOCOL_MD.read_text()
        assert f"(version {wire.PROTOCOL_VERSION})" in text.splitlines()[0]


class TestDocLinks:
    @pytest.mark.parametrize("doc", sorted(DOCS.glob("*.md")),
                             ids=lambda p: p.name)
    def test_relative_links_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for label, target in re.findall(r"\[([^\]]+)\]\(([^)#\s]+)[^)]*\)", text):
            if target.startswith(("http://", "https://")):
                continue
            if not (doc.parent / target).exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"


class TestApiDocstrings:
    @pytest.mark.parametrize("modname",
                             ["repro.dynamic", "repro.shard", "repro.serve",
                              "repro.faults", "repro.obs",
                              "repro.decomposition.minhash"])
    def test_public_surface_is_docstringed(self, modname):
        mod = importlib.import_module(modname)
        missing = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not inspect.getdoc(obj):
                missing.append(f"{modname}.{name}")
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if callable(member) and not (member.__doc__ or "").strip():
                        missing.append(f"{modname}.{name}.{mname}")
                    if isinstance(member, property) and not (
                        (member.fget.__doc__ or "").strip()
                    ):
                        missing.append(f"{modname}.{name}.{mname}")
        assert not missing, f"undocumented public surface: {missing}"


# ----------------------------------------------------------------------
# Code references
# ----------------------------------------------------------------------
CLASS_REF = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")
PATH_REF = re.compile(r"`([\w/]+\.py):([A-Za-z_]\w*)`")


def _targets(node: ast.AST) -> list[ast.AST]:
    """The flattened assignment targets of an (Ann/Aug)Assign node."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        todo = [node.target]
    else:
        return []
    out = []
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        else:
            out.append(t)
    return out


def _class_attrs(cls: ast.ClassDef) -> set[str]:
    """Methods, properties, class-level and dataclass fields, and every
    ``self.X`` the class's own methods assign."""
    attrs = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            attrs.add(item.name)
        attrs.update(t.id for t in _targets(item) if isinstance(t, ast.Name))
    for node in ast.walk(cls):
        attrs.update(
            t.attr
            for t in _targets(node)
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        )
    return attrs


def _file_names(path: Path) -> set[str]:
    """Top-level definitions of a module plus its classes' methods."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        names.update(t.id for t in _targets(node) if isinstance(t, ast.Name))
    return names


@functools.lru_cache(maxsize=None)
def _repro_classes() -> dict[str, tuple[set[str], list[str]]]:
    """Class name → (its own attribute names, its base-class names), over
    every class defined in ``src/repro`` (same-named classes merge)."""
    classes: dict[str, tuple[set[str], list[str]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                attrs, bases = classes.setdefault(node.name, (set(), []))
                attrs |= _class_attrs(node)
                bases += [b.id for b in node.bases if isinstance(b, ast.Name)]
    return classes


def _attrs_with_bases(name: str, seen: frozenset = frozenset()) -> set[str]:
    classes = _repro_classes()
    attrs, bases = classes[name]
    out = set(attrs)
    for base in bases:
        if base in classes and base not in seen:
            out |= _attrs_with_bases(base, seen | {name})
    return out


def _doc_refs(pattern: re.Pattern) -> list[tuple[str, tuple[str, str]]]:
    """``("DOC.md:line", (group 1, group 2))`` for every match."""
    refs = []
    for doc in CODE_DOCS:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for m in pattern.finditer(line):
                refs.append((f"{doc.relative_to(REPO)}:{lineno}", m.groups()))
    return refs


class TestCodeReferences:
    def test_class_attribute_references_resolve(self):
        classes = _repro_classes()
        refs = [
            (where, (cls, attr))
            for where, (cls, attr) in _doc_refs(CLASS_REF)
            if cls in classes
        ]
        assert refs, "no `Class.attr` reference found: the pattern is broken"
        stale = [
            f"{where}: {cls}.{attr}"
            for where, (cls, attr) in refs
            if attr not in _attrs_with_bases(cls)
        ]
        assert not stale, f"docs name class attributes that do not exist: {stale}"

    def test_path_name_references_resolve(self):
        refs = _doc_refs(PATH_REF)
        assert refs, "no `path.py:name` reference found: the pattern is broken"
        stale = []
        for where, (rel, name) in refs:
            files = [p for p in (SRC / rel, REPO / rel, REPO / "tests" / rel) if p.is_file()]
            if not any(name in _file_names(p) for p in files):
                stale.append(f"{where}: {rel}:{name}")
        assert not stale, f"docs name code that does not exist: {stale}"


# ----------------------------------------------------------------------
# Repo paths named by CI and the benches
# ----------------------------------------------------------------------
class TestRepoPaths:
    def test_ci_step_paths_exist(self):
        """A token of ci.yml whose first component is a top-level
        directory of the repo (``benchmarks/plans/x.toml``,
        ``tests/test_shard.py``) is a repo path; outputs a step writes
        (``trace.json``, ``/tmp/...``) are not."""
        tops = {p.name for p in REPO.iterdir() if p.is_dir() and p.name[0] != "."}
        tokens = re.findall(r"(?<![\w./-])([A-Za-z_][\w.-]*(?:/[\w.-]+)+)",
                            CI_YML.read_text())
        paths = sorted({t for t in tokens if t.split("/")[0] in tops})
        assert paths, "no repo path found in ci.yml: the pattern is broken"
        missing = [t for t in paths if not (REPO / t).exists()]
        assert not missing, f"ci.yml names paths that do not exist: {missing}"

    def test_bench_path_constants_exist(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        monkeypatch.syspath_prepend(str(REPO))
        constants = []
        for bench in sorted(BENCHMARKS.glob("bench_*.py")):
            spec = importlib.util.spec_from_file_location(bench.stem, bench)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            constants += [
                (f"{bench.name}:{name}", value)
                for name, value in vars(module).items()
                if isinstance(value, Path)
            ]
        assert constants, "no Path constant found in benchmarks/bench_*.py"
        missing = [where for where, path in constants if not path.exists()]
        assert not missing, f"bench constants name missing paths: {missing}"
