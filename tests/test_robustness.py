"""Malformed-input corpus: every file must fail cleanly with a position.

Builds 200+ deterministically generated invalid inputs (documents,
programs, oracle scripts, agent files, state dumps, bad inline arguments),
runs the matching command on each, and requires exit code 2, an ``error:``
diagnostic, and no traceback. Running in-process means any unhandled
exception fails the test directly. Cases flagged as positioned must name
file and line.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from ctxdl.cli import main

VALID_KB = """\
signature
  concept A, B.
  role r.
  individual a, b.
contexts
  context U, V.
  V <= U.
covers
  cover U by V.
tbox
  A <= B.
abox
  a : A @ U.
facts
  facts U : { a:A }.
"""

KB_MUTATIONS = [
    ("truncated-statement", VALID_KB.replace("a : A @ U.", "a : A @ U")),
    ("statement-before-section", "concept A.\n" + VALID_KB),
    ("undeclared-concept-tbox", VALID_KB.replace("A <= B.", "A <= Zz.")),
    ("undeclared-context-abox", VALID_KB.replace("a : A @ U.", "a : A @ X.")),
    ("undeclared-role", VALID_KB.replace("a : A @ U.", "(a, b) : q @ U.")),
    ("order-cycle", VALID_KB.replace("V <= U.", "V <= U.\n  U <= V.")),
    ("cross-kind-duplicate", VALID_KB.replace("role r.", "role A.")),
    ("reserved-word-name", VALID_KB.replace("concept A, B.", "concept top, B.")),
    ("bad-covering", VALID_KB.replace("cover U by V.", "cover V by U.")),
    ("unknown-cover-member", VALID_KB.replace("cover U by V.", "cover U by Qq.")),
    ("facts-unknown-context", VALID_KB.replace("facts U :", "facts Qq :")),
    ("lone-angle-bracket", VALID_KB.replace("A <= B.", "A < B.")),
    ("unbalanced-parens", VALID_KB.replace("A <= B.", "A <= (A & B.")),
    ("missing-at-sign", VALID_KB.replace("a : A @ U.", "a : A U.")),
    ("bad-fact-braces", VALID_KB.replace("{ a:A }", "{ a:A")),
    (
        "interpolation-violation",
        VALID_KB
        + "contexts\n  context W.\n  W <= V.\nfacts\n  facts W : { a:A }.\n"
        + "facts\n  facts V : { }.\n",
    ),
    ("empty-names", VALID_KB.replace("concept A, B.", "concept .")),
    ("double-comma", VALID_KB.replace("concept A, B.", "concept A,, B.")),
]

BAD_PROGRAMS = [
    ("unclosed-while", "while true do skip"),
    ("missing-else", "if true then skip fi"),
    ("bare-add", "add"),
    ("unknown-name-in-add", "add zz:A@U"),
    ("unknown-context", "add a:A@Zz"),
    ("dangling-seq", "skip;"),
    ("guard-not-closed", "while (true do skip od"),
    ("concept-as-guard", "if A then skip else skip fi"),
    ("stray-token", "skip skip"),
    ("bad-char", "skip $"),
]

BAD_SCRIPTS = [
    ("invalid-json", "{oops}\n"),
    ("not-an-object", "[1, 2]\n"),
    ("missing-oracle-name", '{"match": {"payload": "p"}, "add": []}\n'),
    ("missing-payload", '{"oracle": "s", "match": {}, "add": []}\n'),
    ("bad-assertion", '{"oracle": "s", "match": {"payload": "p"}, "add": ["zz@@"]}\n'),
    ("undeclared-name", '{"oracle": "s", "match": {"payload": "p"}, "add": ["zz:A@U"]}\n'),
    (
        "deletions-without-flag",
        '{"oracle": "s", "match": {"payload": "p"}, "add": [], "del": ["a:A@U"]}\n',
    ),
    (
        "two-oracles",
        '{"oracle": "s1", "match": {"payload": "p"}, "add": []}\n'
        '{"oracle": "s2", "match": {"payload": "q"}, "add": []}\n',
    ),
    ("empty-script", "\n"),
    ("add-not-a-list", '{"oracle": "s", "match": {"payload": "p"}, "add": "a:A@U"}\n'),
    (
        "duplicate-entries",
        '{"oracle": "s", "match": {"payload": "p"}, "add": []}\n'
        '{"oracle": "s", "match": {"payload": "p"}, "add": []}\n',
    ),
]

BAD_AGENTS = [
    ("invalid-json", "{"),
    ("not-an-object", "[]"),
    ("missing-name", '{"kb": "base.kb", "input_context": "U", "projection": []}'),
    ("missing-kb", '{"name": "n", "input_context": "U", "projection": []}'),
    ("bad-projection", '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": ["::"]}'),
    ("unknown-input-context", '{"name": "n", "kb": "base.kb", "input_context": "Zz", "projection": []}'),
    (
        "bad-seed-policy",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], '
        '"seed_policy": {"kind": "chaotic"}}',
    ),
    (
        "bad-guard-mode",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], "guards": "psychic"}',
    ),
    (
        "oracle-without-script",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], "oracle": {}}',
    ),
    (
        "broken-program-ref",
        '{"name": "n", "kb": "base.kb", "program": "broken.p", "input_context": "U", "projection": []}',
    ),
    (
        "fuel-not-an-integer",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], "fuel": [1]}',
    ),
    ("fuel-below-one", '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], "fuel": 0}'),
    (
        "seed-policy-not-an-object",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], "seed_policy": 3}',
    ),
    (
        "seed-value-not-an-integer",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], '
        '"seed_policy": {"kind": "sequence", "start": "one"}}',
    ),
    ("projection-not-a-list", '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": 5}'),
    (
        "projection-misspelled-concept",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": ["a:Obstacel"]}',
    ),
    (
        "query-unknown-field",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], '
        '"oracle": {"script": "feed.jsonl", "queries": ["read-{sead}"]}}',
    ),
    (
        "query-positional-field",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], '
        '"oracle": {"script": "feed.jsonl", "queries": ["read-{0}"]}}',
    ),
    (
        "query-unclosed-field",
        '{"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], '
        '"oracle": {"script": "feed.jsonl", "queries": ["read-{seed"]}}',
    ),
]

# Session logs for ``apply-oracle --replay``; each is broken on its last line.
GOOD_LOG_LINE = '{"seq": 0, "oracle": "s", "match": {"payload": "p", "state": "d"}, "add": []}\n'
BAD_LOGS = [
    ("invalid-json", "{oops}\n"),
    ("not-an-object", "[1]\n"),
    ("missing-seq", '{"oracle": "s", "match": {"payload": "p", "state": "d"}}\n'),
    ("reordered", GOOD_LOG_LINE + GOOD_LOG_LINE),
    ("missing-oracle-name", '{"seq": 0, "match": {"payload": "p", "state": "d"}}\n'),
    ("match-not-an-object", '{"seq": 0, "oracle": "s", "match": [1]}\n'),
    ("missing-state", '{"seq": 0, "oracle": "s", "match": {"payload": "p"}}\n'),
    (
        "two-oracles",
        GOOD_LOG_LINE + '{"seq": 1, "oracle": "t", "match": {"payload": "q", "state": "d"}}\n',
    ),
    ("bad-assertion", GOOD_LOG_LINE.replace('"add": []', '"add": ["zz@@"]')),
]


def build_corpus(root: Path) -> list[tuple[list[str], bool]]:
    """Create the corpus; returns (argv, expect_file_line_position) pairs."""
    rng = random.Random(20260809)
    cases: list[tuple[list[str], bool]] = []

    base = root / "base.kb"
    base.write_text(VALID_KB, encoding="utf-8")
    (root / "broken.p").write_text("while true do", encoding="utf-8")

    kb_dir = root / "kb"
    kb_dir.mkdir()
    mutations = list(KB_MUTATIONS)
    for i, ch in enumerate("%$^~?`"):
        pos = rng.randrange(10, len(VALID_KB) - 10)
        mutations.append((f"garbage-char-{i}", VALID_KB[:pos] + ch + VALID_KB[pos:]))
    from ctxdl.errors import EngineError
    from ctxdl.kbfile import loads

    while len(mutations) < 110:
        i = len(mutations)
        cut = rng.randrange(12, len(VALID_KB) - 2)
        text = VALID_KB[:cut]
        if text.rstrip().endswith("."):
            text = text.rstrip()[:-1]
        try:  # keep only cuts that really break the document
            loads(text)
        except EngineError:
            mutations.append((f"random-truncation-{i}", text))
    for name, text in mutations:
        path = kb_dir / f"{name}.kb"
        path.write_text(text, encoding="utf-8")
        cases.append((["check", str(path)], True))
    binary = kb_dir / "binary.kb"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x9D, 0x80]))
    cases.append((["check", str(binary)], True))

    prog_dir = root / "programs"
    prog_dir.mkdir()
    for count in range(40):
        name, text = BAD_PROGRAMS[count % len(BAD_PROGRAMS)]
        path = prog_dir / f"{name}-{count}.p"
        path.write_text(f"# case {count}\n" + text + "\n" * (count % 3), encoding="utf-8")
        cases.append((["run", str(path), "--kb", str(base)], True))

    script_dir = root / "scripts"
    script_dir.mkdir()
    for count in range(22):
        name, text = BAD_SCRIPTS[count % len(BAD_SCRIPTS)]
        path = script_dir / f"{name}-{count}.jsonl"
        path.write_text(text, encoding="utf-8")
        argv = ["apply-oracle", str(base), "--script", str(path), "--payload", "p"]
        cases.append((argv, True))

    agent_dir = root / "agents"
    agent_dir.mkdir()
    (agent_dir / "broken.p").write_text("while true do", encoding="utf-8")
    (agent_dir / "feed.jsonl").write_text('{"oracle": "s", "match": {"payload": "*"}, "add": []}\n', encoding="utf-8")
    for count, (name, text) in enumerate(BAD_AGENTS):
        path = agent_dir / f"{name}-{count}.json"
        path.write_text(text.replace("base.kb", str(base)), encoding="utf-8")
        cases.append((["stability", str(path), "--runs", "2"], True))

    log_dir = root / "logs"
    log_dir.mkdir()
    for name, text in BAD_LOGS:
        path = log_dir / f"{name}.jsonl"
        path.write_text(text, encoding="utf-8")
        cases.append((["apply-oracle", str(base), "--replay", str(path), "--payload", "p"], True))

    from ctxdl.kb import signature_digest
    from ctxdl.kbfile import load_kb

    digest = signature_digest(load_kb(base).signature)
    state_dir = root / "states"
    state_dir.mkdir()
    state_texts = {
        "no-header": "a:A@U\n",
        "wrong-digest": "ctxdl-state 0000\na:A@U\n",
        "bad-assertion-line": f"ctxdl-state {digest}\na::::\n",
        "undeclared-name-line": f"ctxdl-state {digest}\nzz:A@U\n",
        "garbage-line": f"ctxdl-state {digest}\na : A\n",
        "truncated-header": "ctxdl-state\n",
    }
    for name, text in state_texts.items():
        path = state_dir / f"{name}.state"
        path.write_text(text, encoding="utf-8")
        cases.append((["saturate", str(base), "--state", str(path)], True))
    binary_state = state_dir / "binary.state"
    binary_state.write_bytes(bytes([0xC3, 0x28, 0xFF]))
    cases.append((["saturate", str(base), "--state", str(binary_state)], True))

    inline = [
        ["sat", str(base), "Zz"],
        ["sat", str(base), "A &"],
        ["sat", str(base), "A %"],
        ["subsumes", str(base), "A", "exists q.B"],
        ["glue", str(base), "--target", "Qq", "--section", "V: a:A"],
        ["glue", str(base), "--target", "U", "--section", "V: zz:A"],
        ["glue", str(base), "--target", "U", "--section", "nocolon"],
        ["glue", str(base), "--target", "U", "--section", "V: b:B"],
        ["stable", str(base), "--context", "U", "--section", "a:Zz"],
        ["global-sections", str(base), "--top", "Qq"],
        ["check", str(root / "does-not-exist.kb")],
        ["run", str(root / "does-not-exist.p"), "--kb", str(base)],
        ["stability", str(root / "does-not-exist.json")],
        ["apply-oracle", str(base), "--payload", "p"],
        ["sat"],
    ]
    for argv in inline:
        cases.append((argv, False))
    return cases


def test_malformed_corpus_is_rejected_cleanly(tmp_path, capsys):
    cases = build_corpus(tmp_path)
    assert len(cases) >= 200
    for argv, expect_position in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, f"{argv} exited {code}\nstderr: {captured.err}"
        assert "Traceback" not in captured.err, argv
        if argv != ["sat"]:  # argparse prints its own usage message
            assert captured.err.startswith("error:"), (argv, captured.err)
        if expect_position:
            assert re.search(r":\d+", captured.err), (argv, captured.err)
