"""The generated-docs layer: ISA reference, coverage gate, architecture.

Four contracts:

* ``docs/isa.md`` is *generated* (``repro docs``) and must stay
  byte-identical to what :func:`repro.docsgen.render_isa_reference`
  produces from the live encoder — the committed file cannot drift
  from the ISA without this test failing.
* The rendered reference is internally consistent with
  :mod:`repro.isa`: every opcode, namespace and func enum appears.
* Docstring coverage over ``src/repro`` stays above the CI gate
  (``repro docs --coverage --fail-under``), and the hand-written
  ``docs/architecture.md`` keeps its cross-links.
* The hand-written README Configuration table lists exactly the knob
  registry's variables and defaults (:mod:`repro.runtime.knobs`).
"""

import pathlib
import re

from repro.docsgen import (
    coverage_table,
    docstring_coverage,
    module_coverage,
    render_isa_reference,
)
from repro.isa import FUNC_ENUMS, Namespace, Opcode
from repro.runtime.knobs import KNOBS

REPO = pathlib.Path(__file__).resolve().parent.parent


def _coverage_gate() -> float:
    """CI's ``repro docs --coverage --fail-under`` threshold."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    gates = re.findall(r"--coverage --fail-under (\d+(?:\.\d+)?)", ci)
    assert len(gates) == 1, gates
    return float(gates[0])


def test_isa_reference_is_byte_identical_to_generator():
    committed = (REPO / "docs" / "isa.md").read_text()
    assert committed == render_isa_reference(), (
        "docs/isa.md has drifted from the encoder; regenerate with "
        "`repro docs`")


def test_isa_reference_generation_is_deterministic():
    assert render_isa_reference() == render_isa_reference()


def test_isa_reference_covers_the_whole_isa():
    text = render_isa_reference()
    for opcode in Opcode:
        assert f"`{opcode.name}`" in text, opcode
    for namespace in Namespace:
        assert f"`{namespace.name}`" in text, namespace
    for enum_cls in set(FUNC_ENUMS.values()):
        for func in enum_cls:
            assert f"`{func.name}`" in text, func
    # Field layout tables carry explicit bit positions.
    assert "`[31:28]`" in text and "`[4:0]`" in text
    # Generated-file banner so nobody hand-edits it.
    assert "generated" in text.lower()


def test_docstring_coverage_holds_the_ci_gate():
    report = docstring_coverage()
    assert report.total >= 400, "coverage walker lost most of the package"
    percent = 100.0 * report.coverage
    gate = _coverage_gate()
    assert percent >= gate, (
        f"docstring coverage {percent:.1f}% fell below the "
        f"{gate:.0f}% gate:\n{coverage_table(report)}")


def test_module_coverage_counts_public_defs(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        '"""Module docstring."""\n'
        "def documented():\n"
        '    """Yes."""\n'
        "def bare():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Thing:\n"
        '    """Doc."""\n'
        "    def method(self):\n"
        "        pass\n")
    cov = module_coverage(path, "mod")
    # module + documented + bare + Thing + Thing.method; _private skipped.
    assert cov.total == 5
    assert cov.documented == 3
    assert "mod.bare" in cov.missing and "mod.Thing.method" in cov.missing
    assert not any("_private" in name for name in cov.missing)


def test_architecture_doc_is_cross_linked():
    text = (REPO / "docs" / "architecture.md").read_text()
    # The five layers and the worked example.
    for anchor in ("graph", "compiler", "ISA", "simulators", "serving",
                   "Life of a GeLU tile"):
        assert anchor in text, anchor
    # Companion-doc links.
    assert "isa.md" in text
    assert "../DESIGN.md" in text
    assert "../README.md" in text


def _readme_default(default) -> str:
    """A registry default as the README table's default column shows it."""
    if default is None:
        return "unset"
    if isinstance(default, bool):
        return f"`{int(default)}`"
    return f"`{default}`"


def test_readme_configuration_table_matches_the_knob_registry():
    text = (REPO / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `REPRO_")]
    table = [(name.strip().strip("`"), default.strip())
             for name, default in rows]
    registry = [(knob.name, _readme_default(knob.default))
                for knob in KNOBS.values()]
    assert table == registry
