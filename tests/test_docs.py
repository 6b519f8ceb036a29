"""Docs lint: the documentation may not drift from the code.

* docs/PROTOCOL.md must have exactly one ``####``-level section per
  message type registered in ``repro.serve.protocol.MESSAGE_TYPES`` —
  both directions: an undocumented type fails, and so does a documented
  type the code no longer speaks.
* Every ``ERROR_CODES`` entry must appear in PROTOCOL.md's error table.
* Every relative link in docs/*.md must resolve inside the repo.
* The public surfaces docs/API.md indexes (repro.dynamic, repro.shard,
  repro.serve, repro.faults, repro.obs, repro.decomposition.minhash)
  must be fully docstringed — API.md promises that.
"""

import inspect
import importlib
import re
from pathlib import Path

import pytest

from repro.serve import protocol as wire

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
PROTOCOL_MD = DOCS / "PROTOCOL.md"


def protocol_headings() -> list[str]:
    text = PROTOCOL_MD.read_text()
    return re.findall(r"^#### `([a-z_]+)`\s*$", text, flags=re.M)


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
