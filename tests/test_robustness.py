"""Malformed-input corpus: every file must fail cleanly with a position.

Builds 200+ deterministically generated invalid inputs (documents,
programs, oracle scripts, agent files, state dumps, bad inline arguments),
runs the matching command on each, and requires exit code 2, an ``error:``
diagnostic, and no traceback. Running in-process means any unhandled
exception fails the test directly. Cases flagged as positioned must name
file and line. A bounded hypothesis fuzz then runs random subcommands
and arguments on mutated copies of ``samples/`` and requires exit code
0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import chain_document, counter_document
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
    ("null-payload", '{"oracle": "s", "match": {"payload": null}, "add": ["a:A@U"]}\n'),
    (
        "deletions-flag-not-a-boolean",
        '{"allow_deletions": "false"}\n{"oracle": "s", "match": {"payload": "p"}, "add": [], "del": ["a:A@U"]}\n',
    ),
    ("name-not-a-string", '{"name": 5}\n{"oracle": "5", "match": {"payload": "p"}, "add": []}\n'),
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

# Values the JSON decoder refuses: nesting deeper than it recurses, and an
# integer with more digits than ``int`` converts. Each is the fuel of an
# agent file and the additions of an oracle-script line.
JSON_PAST_LIMITS = [("nested-too-deeply", "[" * 100_000 + "]" * 100_000), ("integer-too-long", "9" * 5_000)]

# Session logs for ``apply-oracle --replay``; each is broken on its last line.
GOOD_LOG_LINE = '{"seq": 0, "oracle": "s", "match": {"payload": "p", "state": "d"}, "add": []}\n'
BAD_LOGS = [
    ("invalid-json", "{oops}\n"),
    ("not-an-object", "[1]\n"),
    ("missing-seq", '{"oracle": "s", "match": {"payload": "p", "state": "d"}}\n'),
    ("seq-false", GOOD_LOG_LINE.replace('"seq": 0', '"seq": false')),
    ("seq-true", GOOD_LOG_LINE + GOOD_LOG_LINE.replace('"seq": 0', '"seq": true')),
    ("seq-float", GOOD_LOG_LINE.replace('"seq": 0', '"seq": 0.0')),
    ("seq-float-one", GOOD_LOG_LINE + GOOD_LOG_LINE.replace('"seq": 0', '"seq": 1.0')),
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
    # Past the JSON decoder's limits, which name the file but no line.
    for name, value in JSON_PAST_LIMITS:
        path = agent_dir / f"{name}.json"
        fields = f'"name": "n", "kb": {json.dumps(str(base))}, "input_context": "U", "projection": []'
        path.write_text(f'{{{fields}, "fuel": {value}}}', encoding="utf-8")
        cases.append((["stability", str(path), "--runs", "2"], False))
        path = script_dir / f"{name}.jsonl"
        path.write_text(f'{{"oracle": "s", "match": {{"payload": "p"}}, "add": {value}}}\n', encoding="utf-8")
        cases.append((["apply-oracle", str(base), "--script", str(path), "--payload", "p"], True))

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


# ---------------------------------------------------------------------------
# CLI fuzz: random subcommands, arguments and mutated sample files
# ---------------------------------------------------------------------------

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SAMPLE_NAMES = sorted(p.name for p in SAMPLES.iterdir())

# The README tour, file names relative to a copy of samples/, and a
# subsumption whose node budget runs out.
TOUR = [
    ["check", "sensing.kb"],
    ["sat", "chain.kb", "A & !C"],
    ["subsumes", "chain.kb", "A", "C"],
    ["subsumes", "chain.kb", "A", "C", "--budget", "2"],
    ["saturate", "chain.kb", "--dump", "state.txt"],
    ["run", "promote.p", "--kb", "chain.kb", "--trace"],
    ["run", "loop.p", "--kb", "empty.kb", "--fuel", "100"],
    ["apply-oracle", "chain.kb", "--script", "probe_session.jsonl", "--payload", "scan-1", "--record", "session.log"],
    ["apply-oracle", "chain.kb", "--replay", "session.log", "--payload", "scan-1"],
    ["glue", "sensing.kb", "--target", "Scene", "--section", "Cam: scene:Obstacle", "--section", "Lidar: scene:Obstacle"],
    ["stable", "refine.kb", "--context", "Cam", "--section", "scene:Obstacle"],
    ["global-sections", "sensing.kb", "--top", "Scene"],
    ["stability", "sensor_constant.json", "--runs", "2"],
]
FLAGS = [
    "--format", "--budget", "--fuel", "--guards", "--state", "--dump", "--trace", "--script", "--oracle",
    "--payload", "--record", "--replay", "--target", "--cover-index", "--section", "--max-universe",
    "--context", "--top", "--runs", "--seeds", "--latent", "--latent-name", "--kb",
]
# Numbers stay small, so no fuel, budget, run count or universe bound
# makes a single example slow.
WORDS = SAMPLE_NAMES + [
    "state.txt", "session.log", "missing.kb", "A", "A & !C", "exists r.(", "!", "Scene", "Cam", "Lidar",
    "Obs", "scan-1", "scene:Obstacle", "Cam: scene:Obstacle", "probe:Seen", "records", "text", "literal",
    "saturated", "1,2", "0", "-1", "2", "9", "",
]
# Inserted text has no decimal digits, so it cannot enlarge a number.
NO_DIGITS = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=12)
# Arguments have no '/' either: every file a command writes stays in the
# working copy.
ARGUMENT = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(FLAGS),
    st.text(st.characters(exclude_categories=("Nd", "Cs"), exclude_characters="/"), max_size=12),
)
# (position, how many items to delete there, what to insert there)
ARGV_EDIT = st.tuples(st.integers(0, 20), st.integers(0, 1), st.lists(ARGUMENT, max_size=1))
TEXT_EDIT = st.tuples(st.integers(0, 2_000), st.integers(0, 40), NO_DIGITS)


def _splice(items, edit):
    pos, length, insert = edit
    pos %= len(items) + 1
    return items[:pos] + insert + items[pos + length :]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(TOUR),
    argv_edits=st.lists(ARGV_EDIT, max_size=3),
    fmt=st.sampled_from([[], ["--format", "records"]]),
    target=st.sampled_from(SAMPLE_NAMES),
    text_edits=st.lists(TEXT_EDIT, max_size=3),
)
def test_cli_fuzz_ends_in_an_exit_code(command, argv_edits, fmt, target, text_edits):
    # Any exception that escapes main fails the example. Relative paths,
    # including any file a mutated --dump or --record names, resolve in a
    # fresh copy of samples/.
    with tempfile.TemporaryDirectory() as tmp:
        for name in SAMPLE_NAMES:
            shutil.copy(SAMPLES / name, Path(tmp, name))
        text = Path(tmp, target).read_text(encoding="utf-8")
        for edit in text_edits:
            text = _splice(text, edit)
        Path(tmp, target).write_text(text, encoding="utf-8")
        argv = list(command)
        for edit in argv_edits:
            argv = _splice(argv, edit)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + fmt)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()


# Documents whose models are deeper than Python's recursion limit: A0 of
# the chain needs 2,001 elements on one r-path, and the 9-bit counter's
# Start 512 before a node blocks, which the default budget does not reach.
DEEP_DOCUMENTS = {
    "chain-2000": (chain_document(2_000), "A0", "A5", 0),
    "counter-9-bits": (counter_document(9), "Start", "B0", 1),
}


@pytest.mark.parametrize("command", ["sat", "subsumes", "run"])
@pytest.mark.parametrize("document", sorted(DEEP_DOCUMENTS))
def test_deep_models_end_in_a_verdict_or_a_budget_error(tmp_path, capsys, document, command):
    text, c, d, code = DEEP_DOCUMENTS[document]
    kb = tmp_path / "deep.kb"
    kb.write_text(text, encoding="utf-8")
    program = tmp_path / "guarded.p"
    program.write_text(f"if {c} <= {d} then add a:{c}@U else skip fi\n", encoding="utf-8")
    argv = {
        "sat": ["sat", str(kb), c],
        "subsumes": ["subsumes", str(kb), c, d],
        "run": ["run", str(program), "--kb", str(kb)],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.endswith("tableau node budget of 100000 exceeded\n"), err
    else:
        assert err == ""
