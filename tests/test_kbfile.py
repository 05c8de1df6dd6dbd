"""Document loading, cross-reference validation, and state dumps."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxdl.concepts import Atomic
from ctxdl.errors import LoadError
from ctxdl.kb import ConceptAssertion, RoleAssertion
from ctxdl.kbfile import dump_state, load_kb, load_state, loads, write_state
from corpus import concept_fact

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


class TestLoad:
    def test_sensing_fixture_loads(self):
        doc = load_kb(SAMPLES / "sensing.kb")
        assert doc.signature.concept_names == {"Obstacle", "Glare"}
        assert doc.poset.leq("Core", "Scene")
        assert len(doc.coverings) == 1
        assert doc.universes["Cam"] == {
            concept_fact("scene", "Obstacle"),
            concept_fact("cam1", "Glare"),
        }

    def test_chain_fixture_loads(self):
        doc = load_kb(SAMPLES / "chain.kb")
        assert len(doc.tbox.inclusions) == 2
        assert doc.abox == {ConceptAssertion("a", Atomic("A"), "U")}

    def test_empty_document(self):
        doc = load_kb(SAMPLES / "empty.kb")
        assert doc.signature.concept_names == frozenset()
        assert doc.abox == frozenset()

    def test_sections_in_any_order_with_forward_references(self):
        text = """
        abox
          a : A @ U.
        tbox
          A <= B.
        contexts
          context U, V.
          V <= U.
        signature
          concept A, B.
          individual a.
        """
        doc = loads(text)
        assert doc.abox == {ConceptAssertion("a", Atomic("A"), "U")}

    def test_facts_statement_marks_its_own_section(self):
        text = """
        signature
          concept A.
          individual a.
        contexts
          context U.
        facts U : { a:A }.
        """
        doc = loads(text)
        assert doc.universes["U"] == {concept_fact("a", "A")}

    def test_role_assertions_and_complex_concepts(self):
        text = """
        signature
          concept A, B.
          role r.
          individual a, b.
        contexts
          context U.
        abox
          (a, b) : r @ U.
          a : exists r.(A & !B) @ U.
        """
        doc = loads(text)
        assert RoleAssertion("a", "b", "r", "U") in doc.abox


class TestLoadErrors:
    def check(self, text, fragment, line=None):
        with pytest.raises(LoadError) as exc:
            loads(text, "doc.kb")
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line
        assert str(exc.value).startswith("doc.kb:")

    def test_statement_before_any_section(self):
        self.check("concept A.", "before any section", line=1)

    def test_missing_terminator(self):
        self.check("signature\nconcept A", "terminating '.'", line=2)

    def test_undeclared_concept_in_tbox(self):
        self.check(
            "signature\nconcept A.\ntbox\nA <= Nope.",
            "unknown concept name 'Nope'",
            line=4,
        )

    def test_undeclared_context_in_order(self):
        self.check(
            "contexts\ncontext U.\nV <= U.",
            "unknown context 'V'",
            line=3,
        )

    def test_order_cycle(self):
        self.check(
            "contexts\ncontext U, V.\nU <= V.\nV <= U.",
            "cycle",
        )

    def test_name_declared_in_two_kinds(self):
        self.check("signature\nconcept A.\nrole A.", "declared both")

    def test_reserved_word_as_name(self):
        self.check("signature\nconcept top.", "reserved word")

    def test_invalid_covering(self):
        self.check(
            "contexts\ncontext U, V.\ncovers\ncover V by U.",
            "not a subcontext",
            line=4,
        )

    def test_facts_fail_interpolation(self):
        self.check(
            """
            signature
              concept A.
              individual a.
            contexts
              context U, V, W.
              V <= U.
              W <= V.
            facts
              facts U : { a:A }.
              facts W : { a:A }.
            """,
            "not a presheaf",
        )

    def test_lexical_garbage(self):
        self.check("signature\nconcept A%.", "unexpected character", line=2)

    def test_missing_file(self):
        with pytest.raises(LoadError):
            load_kb(SAMPLES / "does-not-exist.kb")

    def test_binary_file(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x9D]))
        with pytest.raises(LoadError) as exc:
            load_kb(bad)
        assert exc.value.line == 1


CYCLE_DOC = """
contexts
  context U, V, W.
  U <= V. V <= W. W <= U.
"""

# T has M1 and M2 below it, L1 sits below M1 and L2 below M2; a:A and a:B
# are stranded at both L1 and L2, so two chains violate interpolation, each
# with two facts.
STRANDED_DOC = """
signature
  concept A, B.
  individual a.
contexts
  context T, M1, M2, L1, L2.
  M1 <= T. M2 <= T. L1 <= M1. L2 <= M2.
facts
  facts T : { a:A, a:B }.
  facts L1 : { a:A, a:B }.
  facts L2 : { a:A, a:B }.
"""

_LOAD_EACH = """
import json, sys
from ctxdl.errors import LoadError
from ctxdl.kbfile import loads
messages = []
for text in json.load(sys.stdin):
    try:
        loads(text, "doc.kb")
        messages.append(None)
    except LoadError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""


class TestDeterministicDiagnostics:
    def test_one_message_per_document_across_hash_seeds(self):
        src = str(ROOT / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        seen = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c", _LOAD_EACH],
                input=json.dumps([CYCLE_DOC, STRANDED_DOC]),
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
                capture_output=True,
                text=True, encoding="utf-8",
                check=True,
            )
            seen.add(tuple(json.loads(proc.stdout)))
        assert seen == {
            (
                "doc.kb:4: order cycle between contexts 'U' and 'V'",
                "doc.kb:11: universes are not a presheaf: a:A is expressible at 'T' "
                "and at 'L1' but not at 'M1' in between",
            )
        }


class TestStateDump:
    def test_round_trip(self, tmp_path):
        doc = load_kb(SAMPLES / "chain.kb")
        extra = ConceptAssertion("a", Atomic("C"), "U")
        path = tmp_path / "state.txt"
        write_state(path, doc.signature, doc.abox | {extra})
        back = load_state(path, doc.signature)
        assert back == doc.abox | {extra}

    def test_dump_is_sorted_and_headed(self):
        doc = load_kb(SAMPLES / "chain.kb")
        text = dump_state(doc.signature, doc.abox)
        lines = text.splitlines()
        assert lines[0].startswith("ctxdl-state ")
        assert lines[1:] == sorted(lines[1:])

    def test_signature_mismatch_rejected(self, tmp_path):
        chain = load_kb(SAMPLES / "chain.kb")
        sensing = load_kb(SAMPLES / "sensing.kb")
        path = tmp_path / "state.txt"
        write_state(path, chain.signature, chain.abox)
        with pytest.raises(LoadError) as exc:
            load_state(path, sensing.signature)
        assert "different signature" in str(exc.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("a:A@U\n", encoding="utf-8")
        doc = load_kb(SAMPLES / "chain.kb")
        with pytest.raises(LoadError):
            load_state(path, doc.signature)
