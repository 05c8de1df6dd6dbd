"""Command-line surface: verdicts, exit codes, records stability, pipelines."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from children import SALTS, hash_orders, run_child
from ctxdl.cli import main
from ctxdl.lexer import MAX_NESTING

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(*argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


class TestVerdictCommands:
    def test_check_ok(self, capsys):
        code, out, _ = run_cli("check", SAMPLES / "sensing.kb", capsys=capsys)
        assert code == 0
        assert out.startswith("ok:")

    def test_subsumes_chain(self, capsys):
        code, out, _ = run_cli(
            "subsumes", SAMPLES / "chain.kb", "A", "C", "--format", "records", capsys=capsys
        )
        assert code == 0
        assert records_of(out) == [
            {"command": "subsumes", "lhs": "A", "rhs": "C", "subsumes": True}
        ]

    def test_negative_verdict_still_exits_zero(self, capsys):
        code, out, _ = run_cli(
            "subsumes", SAMPLES / "chain.kb", "C", "A", "--format", "records", capsys=capsys
        )
        assert code == 0
        assert records_of(out)[0]["subsumes"] is False

    def test_sat(self, capsys):
        code, out, _ = run_cli(
            "sat", SAMPLES / "chain.kb", "A & !C", "--format", "records", capsys=capsys
        )
        assert code == 0
        assert records_of(out)[0]["satisfiable"] is False

    def test_saturate_lists_canonical_assertions(self, capsys):
        code, out, _ = run_cli(
            "saturate", SAMPLES / "chain.kb", "--format", "records", capsys=capsys
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["assertions"] == ["a:A@U"]


class TestRun:
    def test_loop_exhausts_fuel(self, capsys):
        code, out, _ = run_cli(
            "run", SAMPLES / "loop.p", "--kb", SAMPLES / "empty.kb",
            "--fuel", "100", "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["outcome"] == "fuel-exhausted"
        assert rec["steps"] == 100

    def test_fuel_exhausted_text_report(self, capsys):
        code, out, _ = run_cli(
            "run", SAMPLES / "loop.p", "--kb", SAMPLES / "empty.kb", "--fuel", "100",
            capsys=capsys,
        )
        assert code == 0
        assert "fuel-exhausted after 100 steps" in out

    def test_promotion_program_with_trace(self, capsys):
        code, out, _ = run_cli(
            "run", SAMPLES / "promote.p", "--kb", SAMPLES / "chain.kb",
            "--trace", "--format", "records", capsys=capsys,
        )
        assert code == 0
        recs = records_of(out)
        assert recs[0]["outcome"] == "terminated"
        assert recs[0]["assertions"] == ["a:A@U", "a:B@U", "a:C@U"]
        rules = [r["rule"] for r in recs if r["command"] == "trace"]
        assert rules == ["if-true", "add", "if-true", "add"]

    def test_state_dump_and_reload_pipeline(self, capsys, tmp_path):
        dump = tmp_path / "after.state"
        code, _, _ = run_cli(
            "run", SAMPLES / "promote.p", "--kb", SAMPLES / "chain.kb",
            "--dump", dump, capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            "saturate", SAMPLES / "chain.kb", "--state", dump,
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        assert records_of(out)[0]["assertions"] == ["a:A@U", "a:B@U", "a:C@U"]

    def test_flat_sequence_of_3000_commands(self, capsys, tmp_path):
        prog = tmp_path / "flat.p"
        prog.write_text("; ".join(["skip"] * 3000) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            "run", "--kb", SAMPLES / "empty.kb", prog, "--format", "records", capsys=capsys
        )
        assert (code, err) == (0, "")
        assert records_of(out) == [
            {"command": "run", "outcome": "terminated", "steps": 5999, "assertions": []}
        ]

    @pytest.mark.parametrize("n", [700, 3000])
    @pytest.mark.parametrize("trace", [False, True])
    def test_long_disjunction_guard(self, tmp_path, n, trace):
        # 'a | b' parses as '!(!a & !b)', left-nested: three guard nodes
        # per disjunct. Only the last disjunct holds.
        prog = tmp_path / "wide.p"
        guard = " | ".join(["a:B@U"] * (n - 1) + ["a:A@U"])
        prog.write_text(f"if {guard} then add a:C@U else skip fi\n", encoding="utf-8")
        argv = ["run", str(prog), "--kb", str(SAMPLES / "chain.kb"), "--format", "records"]
        proc = subprocess.run(
            [sys.executable, "-m", "ctxdl.cli", *argv, *(["--trace"] if trace else [])],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        recs = records_of(proc.stdout)
        assert recs[0] == {
            "command": "run", "outcome": "terminated", "steps": 2, "assertions": ["a:A@U", "a:C@U"]
        }
        assert [r["rule"] for r in recs[1:]] == (["if-true", "add"] if trace else [])

    def test_program_parse_error_has_line_and_column(self, capsys, tmp_path):
        prog = tmp_path / "bad.p"
        prog.write_text("skip;\nif a:A@U then skip else skip fu\n", encoding="utf-8")
        code, _, err = run_cli("run", prog, "--kb", SAMPLES / "chain.kb", capsys=capsys)
        assert code == 2
        assert err == f"error: {prog}:2:30: expected 'fi', found 'fu'\n"


class TestOracleCommand:
    def test_session_and_final_state(self, capsys):
        code, out, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", SAMPLES / "probe_session.jsonl",
            "--payload", "scan-1", "--payload", "scan-2",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        recs = records_of(out)
        assert recs[0]["added"] == ["a:A@U"]
        assert recs[-1]["command"] == "oracle-final"
        assert recs[-1]["assertions"] == ["a:A@U", "a:B@U"]

    def test_record_then_replay_bytes(self, capsys, tmp_path):
        log = tmp_path / "session.jsonl"
        code, first, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", SAMPLES / "probe_session.jsonl",
            "--payload", "scan-1", "--payload", "scan-3", "--record", log,
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        code, second, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--replay", log,
            "--payload", "scan-1", "--payload", "scan-3",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        assert first == second

    def test_recording_twice_replaces_the_log(self, capsys, tmp_path):
        # Each recording starts a new log at seq 0; appending to the old one
        # would leave a log that no replay can follow.
        log, fresh = tmp_path / "session.jsonl", tmp_path / "fresh.jsonl"
        script = ("--script", SAMPLES / "probe_session.jsonl")
        for path, payloads in ((log, ("scan-1", "scan-3")), (log, ("scan-2",)), (fresh, ("scan-2",))):
            code, _, _ = run_cli(
                "apply-oracle", SAMPLES / "chain.kb", *script,
                *(a for p in payloads for a in ("--payload", p)), "--record", path,
                capsys=capsys,
            )
            assert code == 0
        assert log.read_bytes() == fresh.read_bytes()
        assert [json.loads(line)["seq"] for line in log.read_text(encoding="utf-8").splitlines()] == [0]
        code, out, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--replay", log, "--payload", "scan-2",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        assert records_of(out)[-1]["assertions"] == ["a:A@U", "a:B@U"]

    def test_replay_divergence_is_a_runtime_error(self, capsys, tmp_path):
        log = tmp_path / "session.jsonl"
        run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", SAMPLES / "probe_session.jsonl",
            "--payload", "scan-1", "--record", log, capsys=capsys,
        )
        code, _, err = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--replay", log,
            "--payload", "scan-2", capsys=capsys,
        )
        assert code == 1
        assert "position 0" in err

    def write_deleting_script(self, tmp_path):
        """Payload scan-2 deletes a fact only in the state that scan-1 reaches
        from chain.kb; in any other state it changes nothing."""
        script = tmp_path / "deleting.jsonl"
        entries = [
            {"allow_deletions": True},
            {"oracle": "probe", "match": {"payload": "scan-1"}, "add": ["a:B@U"]},
            {
                "oracle": "probe",
                "match": {"payload": "scan-2", "state": "a:A@U;a:B@U"},
                "add": ["a:C@U"],
                "del": ["a:A@U"],
            },
            {"oracle": "probe", "match": {"payload": "scan-2"}, "add": []},
        ]
        script.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        return script

    def test_exact_state_deletion_records_and_replays(self, capsys, tmp_path):
        script, log = self.write_deleting_script(tmp_path), tmp_path / "session.jsonl"
        payloads = ("--payload", "scan-1", "--payload", "scan-2")
        code, first, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", script, *payloads, "--record", log,
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        recs = records_of(first)
        assert recs[1]["added"] == ["a:C@U"] and recs[1]["removed"] == ["a:A@U"]
        assert recs[-1]["assertions"] == ["a:B@U", "a:C@U"]
        assert [json.loads(line)["match"]["state"] for line in log.read_text(encoding="utf-8").splitlines()] == [
            "a:A@U",
            "a:A@U;a:B@U",
        ]
        code, second, _ = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--replay", log, *payloads,
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        assert first == second

    def test_miss_after_two_steps_prints_nothing_and_keeps_their_log(self, capsys, tmp_path):
        script, log = self.write_deleting_script(tmp_path), tmp_path / "session.jsonl"
        code, out, err = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", script,
            "--payload", "scan-1", "--payload", "scan-2", "--payload", "bogus", "--record", log,
            capsys=capsys,
        )
        assert code == 1 and out == ""
        assert "no entry for payload 'bogus'" in err
        assert [json.loads(line)["seq"] for line in log.read_text(encoding="utf-8").splitlines()] == [0, 1]

    def test_unknown_payload_is_a_runtime_error(self, capsys):
        code, _, err = run_cli(
            "apply-oracle", SAMPLES / "chain.kb", "--script", SAMPLES / "probe_session.jsonl",
            "--payload", "bogus", capsys=capsys,
        )
        assert code == 1
        assert "no entry" in err


class TestSheafCommands:
    def test_glue_union(self, capsys):
        code, out, _ = run_cli(
            "glue", SAMPLES / "sensing.kb", "--target", "Scene",
            "--section", "Cam: scene:Obstacle", "--section", "Lidar: scene:Obstacle",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["verdict"] == "glued"
        assert rec["section"]["facts"] == ["scene:Obstacle"]

    def test_glue_incompatible_when_local_fact_cannot_lift(self, capsys):
        code, out, _ = run_cli(
            "glue", SAMPLES / "sensing.kb", "--target", "Scene",
            "--section", "Cam: scene:Obstacle, cam1:Glare",
            "--section", "Lidar: scene:Obstacle",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["verdict"] == "incompatible"
        assert any("cam1:Glare" in c["facts"] for c in rec["conflicts"])

    def test_stable_fails_on_refine_fixture(self, capsys):
        code, out, _ = run_cli(
            "stable", SAMPLES / "refine.kb", "--context", "Cam",
            "--section", "scene:Obstacle", "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["stable"] is False
        assert rec["failing_cover"] == {"target": "Cam", "members": ["Core"]}

    def test_global_sections_include_the_obstacle_section(self, capsys):
        code, out, _ = run_cli(
            "global-sections", SAMPLES / "sensing.kb", "--top", "Scene",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        recs = records_of(out)
        assert recs[0]["count"] == 2
        facts = [r["facts"] for r in recs if r["command"] == "section"]
        assert ["scene:Obstacle"] in facts

    def test_global_sections_of_an_unstable_top_of_25_facts(self, capsys, tmp_path):
        # The limit bounds a listing, and an unstable top lists nothing.
        names = [f"A{i}" for i in range(25)]
        kb = tmp_path / "wide.kb"
        kb.write_text(
            f"signature\n  concept {', '.join(names)}.\n  individual a.\n"
            "contexts\n  context Cam, Core.\n  Core <= Cam.\n"
            "covers\n  cover Cam by Core.\n"
            f"facts\n  facts Cam : {{ {', '.join('a:' + n for n in names)} }}.\n  facts Core : {{ a:A0 }}.\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli("global-sections", kb, "--top", "Cam", "--format", "records", capsys=capsys)
        assert code == 0
        assert records_of(out)[0]["count"] == 0


# The command behind each file in tests/golden/*.records.
GOLDEN_COMMANDS = {
    "global_sections_mixed.records": ["global-sections", GOLDEN / "mixed.kb", "--top", "Scene"],
    "global_sections_sensing.records": ["global-sections", SAMPLES / "sensing.kb", "--top", "Scene"],
    "glue_nonunique_mixed.records": [
        "glue", GOLDEN / "mixed.kb", "--target", "Dock", "--section", "Probe: scene:Obstacle",
    ],
    "glue_incompatible_order.records": [
        "glue", GOLDEN / "order.kb", "--target", "T",
        "--section", "R: x:B, y:B", "--section", "L: x:A, z:B, w:A",
    ],
    "stability_alternating.records": ["stability", SAMPLES / "sensor_alternating.json", "--runs", "4"],
    "stability_constant.records": ["stability", SAMPLES / "sensor_constant.json", "--runs", "4"],
}

# samples/ commands run from a copy of samples/: the tour's command kinds on
# more inputs and outcomes, and two errors.
SAMPLE_COMMANDS = [
    ["check", "refine.kb"],
    ["saturate", "chain.kb", "--dump", "state.txt"],
    ["run", "promote.p", "--kb", "chain.kb", "--trace"],
    ["run", "loop.p", "--kb", "empty.kb", "--fuel", "100"],
    ["run", "sensor.p", "--kb", "sensor.kb", "--trace"],
    [
        "apply-oracle", "chain.kb", "--script", "probe_session.jsonl",
        "--payload", "scan-3", "--payload", "scan-1", "--payload", "scan-2", "--record", "session.log",
    ],
    ["apply-oracle", "chain.kb", "--replay", "session.log", "--payload", "scan-3", "--payload", "scan-1", "--payload", "scan-2"],
    ["stable", "refine.kb", "--context", "Cam", "--section", "scene:Obstacle, cam1:Glare"],
    ["global-sections", "refine.kb", "--top", "Cam"],
    [
        "glue", "sensing.kb", "--target", "Scene",
        "--section", "Cam: scene:Obstacle, cam1:Glare", "--section", "Lidar: scene:Obstacle",
    ],
    ["glue", "sensing.kb", "--target", "Scene", "--section", "Cam: scene:Obstacle", "--section", "Lidar:"],
    ["glue", "refine.kb", "--target", "Cam", "--section", "Core: scene:Obstacle"],
    ["stability", "sensor_alternating.json", "--runs", "4"],
    ["stable", "refine.kb", "--context", "Nowhere", "--section", "scene:Obstacle"],
    ["glue", "sensing.kb", "--target", "Scene", "--section", "Cam: scene:Nope"],
]

# Reads a JSON list of argument lists, runs each in process, and prints the
# JSON list of their [exit code, stdout, stderr].
_RUN_EACH = """
import contextlib, io, json, sys
from ctxdl.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


class TestFactSyntax:
    """Facts, assertions and projection patterns share one reader and one
    name check, so each command reports a bad one the same way."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        shutil.copytree(SAMPLES, tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def write_agent(self, workdir, projection):
        agent = json.loads((SAMPLES / "sensor_constant.json").read_text(encoding="utf-8"))
        (workdir / "agent.json").write_text(json.dumps({**agent, "projection": projection}), encoding="utf-8")
        return "agent.json"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stable", "refine.kb", "--context", "Cam", "--section", "(,b):r"], "1:2: expected an individual name, found ','"),
            (["stable", "refine.kb", "--context", "Cam", "--section", "*:Obstacle"], "1:1: expected an individual name, found '*'"),
            (["stability", "sensor_constant.json", "--latent", "(,b):r"], "1:2: expected an individual name, found ','"),
            (["glue", "sensing.kb", "--target", "Scene", "--section", "Cam", "--section", "Lidar:"],
             "1:4: expected ':' after the section's context, found end of input"),
            (["glue", "sensing.kb", "--target", "Scene", "--section", "Zz: scene:Obstacle", "--section", "Lidar:"],
             "1:1: unknown context name 'Zz'"),
        ],
    )
    def test_bad_fact_arguments(self, capsys, workdir, argv, message):
        assert run_cli(*argv, capsys=capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("facts Obs : { (,b):r }.", "7:16: expected an individual name, found ','"),
            ("abox *:High @ Obs.", "7:6: expected an individual name, found '*'"),
        ],
    )
    def test_bad_facts_in_a_document(self, capsys, workdir, statement, message):
        (workdir / "bad.kb").write_text((SAMPLES / "sensor.kb").read_text(encoding="utf-8") + statement + "\n", encoding="utf-8")
        assert run_cli("check", "bad.kb", capsys=capsys) == (2, "", f"error: bad.kb:{message}\n")

    @pytest.mark.parametrize(
        "assertion, message",
        [
            ("scene:Zz@Obs", "unknown concept name 'Zz'"),
            ("*:High@Obs", "expected an individual name, found '*'"),
        ],
    )
    def test_bad_oracle_assertion_names_no_inner_position(self, capsys, workdir, assertion, message):
        record = {"oracle": "stream", "match": {"payload": "*"}, "add": [assertion]}
        (workdir / "s.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        got = run_cli("apply-oracle", "sensor.kb", "--script", "s.jsonl", "--payload", "p", capsys=capsys)
        assert got == (2, "", f"error: s.jsonl:1: bad assertion {assertion!r}: {message}\n")

    def test_spaces_between_pattern_tokens_load(self, capsys, workdir):
        agent = self.write_agent(workdir, ["scene : Obstacle @ Obs"])
        assert run_cli("stability", agent, "--runs", "2", capsys=capsys) == (0, "stable over 2 runs: scene:Obstacle\n", "")

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("sc ene:Obs tacle", "unknown individual name 'sc'"),
            ("scene:Obs tacle", "unknown concept name 'Obs'"),
            ("scene:Obstacle Obs", "unexpected trailing input 'Obs'"),
            ("scene:Obstacle@Obs@Obs", "unexpected trailing input '@'"),
        ],
    )
    def test_bad_projection_patterns(self, capsys, workdir, pattern, message):
        agent = self.write_agent(workdir, [pattern])
        col = (workdir / agent).read_text(encoding="utf-8").index(json.dumps(pattern)) + 1
        got = run_cli("stability", agent, "--runs", "2", capsys=capsys)
        assert got == (2, "", f"error: {agent}:1:{col}: projection pattern {pattern!r}: {message}\n")


class TestRecordsGoldens:
    """Byte-identical records over a universe mixing concept and role facts,
    which pin the canonical order of sections and gluing candidates."""

    def test_global_sections_of_five_facts(self, capsys):
        code, out, _ = run_cli(
            "global-sections", GOLDEN / "mixed.kb", "--top", "Scene", "--format", "records",
            capsys=capsys,
        )
        assert code == 0
        assert out == (GOLDEN / "global_sections_mixed.records").read_text(encoding="utf-8")
        assert records_of(out)[0]["count"] == 32

    def test_non_unique_glue_with_three_free_facts(self, capsys):
        code, out, _ = run_cli(
            "glue", GOLDEN / "mixed.kb", "--target", "Dock", "--section", "Probe: scene:Obstacle",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        assert out == (GOLDEN / "glue_nonunique_mixed.records").read_text(encoding="utf-8")
        (rec,) = records_of(out)
        assert rec["verdict"] == "non-unique"
        assert len(rec["candidates"]) == 8

    def test_goldens_under_fixed_hash_seeds(self):
        # One child per string-hash seed or node-hash salt runs every golden
        # command in process.
        assert sorted(GOLDEN_COMMANDS) == sorted(p.name for p in GOLDEN.glob("*.records"))
        argvs = json.dumps([[*map(str, argv), "--format", "records"] for argv in GOLDEN_COMMANDS.values()])
        expected = [(0, (GOLDEN / name).read_bytes(), "") for name in GOLDEN_COMMANDS]
        for seed, salt in hash_orders((2, 3, 17, 4242, 4294967295)):
            proc = run_child(_RUN_EACH, stdin=argvs, hashseed=seed, salt=salt)
            assert proc.returncode == 0, proc.stderr
            outs = [(code, out.encode("utf-8"), err) for code, out, err in json.loads(proc.stdout)]
            assert outs == expected, f"PYTHONHASHSEED={seed}, salt={salt}"

    def test_benchmark_tour_records(self, capsys, monkeypatch, tmp_path):
        # The cli benchmark's README tour, in-process: the same commands on
        # copies of its fixtures, compared with its expected records.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from tour import TOUR

        fixtures = PERFBENCH / "tour"
        for path in fixtures.iterdir():
            if path.name != "expected.json":
                shutil.copyfile(path, tmp_path / path.name)
        expected = json.loads((fixtures / "expected.json").read_text(encoding="utf-8"))
        assert list(TOUR).index("apply_oracle_record") < list(TOUR).index("apply_oracle_replay")
        assert sorted(TOUR) == sorted(expected)
        monkeypatch.chdir(tmp_path)
        for label, argv in TOUR.items():
            code, out, err = run_cli(*argv, "--format", "records", capsys=capsys)
            assert (code, err) == (0, ""), label
            assert out.splitlines() == expected[label], label


class TestScrambledNodeHashes:
    """The README tour and the samples/ commands, in text and records
    format: exit codes, stdout, stderr and the files written are the same
    whatever order node hashes give sets."""

    def test_tour_and_samples_under_scrambled_node_hashes(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from tour import TOUR

        def run(fixtures, argvs, salt):
            # Each child works in its own copy: the files it writes are compared too.
            workdir = tmp_path / f"{fixtures.name}-{salt}"
            shutil.copytree(fixtures, workdir)
            proc = run_child(_RUN_EACH, cwd=workdir, stdin=json.dumps(argvs), salt=salt)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout), {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}

        for fixtures, commands in [(PERFBENCH / "tour", TOUR.values()), (SAMPLES, SAMPLE_COMMANDS)]:
            argvs = [[*argv, *fmt] for fmt in ([], ["--format", "records"]) for argv in commands]
            plain_runs, plain_files = run(fixtures, argvs, None)
            assert "session.log" in plain_files
            for salt in SALTS:
                runs, files = run(fixtures, argvs, salt)
                for argv, got, want in zip(argvs, runs, plain_runs, strict=True):
                    assert got == want, (salt, argv)
                assert files == plain_files, (fixtures.name, salt)


class TestStabilityCommand:
    def test_constant_stream_is_stable(self, capsys):
        code, out, _ = run_cli(
            "stability", SAMPLES / "sensor_constant.json", "--runs", "4",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["stable"] is True
        assert rec["outcome"] == ["scene:Obstacle"]

    def test_alternating_stream_is_unstable(self, capsys):
        code, out, _ = run_cli(
            "stability", SAMPLES / "sensor_alternating.json", "--runs", "4",
            "--format", "records", capsys=capsys,
        )
        assert code == 0
        rec = records_of(out)[0]
        assert rec["stable"] is False
        assert [o["count"] for o in rec["outcomes"]] == [2, 2]


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli("check", SAMPLES / "nope.kb", capsys=capsys)
        assert code == 2
        assert "error:" in err

    def test_parse_error_has_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("signature\nconcept A\nconcept B.\n", encoding="utf-8")
        code, _, err = run_cli("check", bad, capsys=capsys)
        assert code == 2
        assert f"{bad}:" in err

    def test_unknown_concept_argument(self, capsys):
        code, _, err = run_cli("sat", SAMPLES / "chain.kb", "Zz", capsys=capsys)
        assert code == 2
        assert "unknown concept name" in err

    @pytest.mark.parametrize(
        "concept, message",
        [("Ä", "1:1: unexpected character 'Ä'"), ("é & A", "1:1: unexpected character 'é'"),
         ("A²", "1:2: unexpected character '²'"), ("A & Bé", "1:6: unexpected character 'é'")],
    )
    def test_identifiers_are_ascii(self, capsys, concept, message):
        # The grammar's identifiers are [A-Za-z][A-Za-z0-9_]*, as Signature enforces.
        got = run_cli("sat", SAMPLES / "chain.kb", concept, capsys=capsys)
        assert got == (2, "", f"error: {message}\n")

    def test_reasoner_budget_is_a_runtime_error(self, capsys):
        code, _, err = run_cli(
            "subsumes", SAMPLES / "chain.kb", "A", "C", "--budget", "1", capsys=capsys
        )
        assert code == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["run", "loop.p", "--kb", "empty.kb", "--fuel", "0"], 2, "fuel must be at least 1"),
            (["global-sections", "sensing.kb", "--top", "Scene", "--max-universe", "0"], 1, "limit of 0"),
            # Only a listing is limited, so the family has to leave facts free.
            (["glue", GOLDEN / "mixed.kb", "--target", "Dock", "--section", "Probe: scene:Obstacle",
              "--max-universe", "0"], 1, "limit of 0"),
        ],
    )
    def test_explicit_zero_limits_are_not_defaults(self, capsys, monkeypatch, argv, code, message):
        # The handlers fill in the defaults, and only for an absent flag.
        monkeypatch.chdir(SAMPLES)
        got, _, err = run_cli(*argv, capsys=capsys)
        assert (got, message in err) == (code, True)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sat", "chain.kb", "A", "--budget", "-5"], "--budget: a limit is 0 or more, not -5"),
            (["subsumes", "chain.kb", "A", "C", "--budget", "-1"], "--budget: a limit is 0 or more, not -1"),
            (["run", "loop.p", "--kb", "empty.kb", "--budget", "-1"], "--budget: a limit is 0 or more, not -1"),
            (["global-sections", "sensing.kb", "--top", "Scene", "--max-universe", "-1"],
             "--max-universe: a limit is 0 or more, not -1"),
            (["glue", "sensing.kb", "--target", "Scene", "--section", "Cam:", "--max-universe", "-2"],
             "--max-universe: a limit is 0 or more, not -2"),
            (["sat", "chain.kb", "A", "--budget", "x"], "--budget: invalid int value: 'x'"),
        ],
    )
    def test_bad_limits_are_bad_input(self, capsys, monkeypatch, argv, message):
        # A limit below 0 is refused before any work, like any bad flag value.
        monkeypatch.chdir(SAMPLES)
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {message}\n")

    def test_bad_seed_is_named(self, capsys):
        got = run_cli(
            "stability", SAMPLES / "sensor_constant.json", "--runs", "2", "--seeds", "1,x", capsys=capsys
        )
        assert got == (2, "", "error: --seeds: 'x' is not an integer\n")

    def test_bad_flags_exit_two(self, capsys):
        assert main(["sat"]) == 2
        capsys.readouterr()

    def test_records_output_is_byte_stable(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(
                "global-sections", SAMPLES / "sensing.kb", "--top", "Scene",
                "--format", "records", capsys=capsys,
            )
            outs.append(out)
        assert outs[0] == outs[1]


# Every file a command reads: the file's name in a copy of samples/, the
# command line that reads it, and a text with a token error in it followed
# by the message that error gives after "error: <path>:". The agent files
# agent-kb.json, agent-program.json and agent-script.json each point one of
# their references at the broken file. A state text's DIGEST is replaced by
# the digest of chain.kb's signature.
INPUT_FILES = {
    "check": (
        "bad.kb", ["check", "bad.kb"],
        "signature\n  concept A.\ntbox\n  A <= Zz.\n", "4:8: unknown concept name 'Zz'",
    ),
    "sat": (
        "bad.kb", ["sat", "bad.kb", "A"],
        "signature\n  concept A.\n  individual a.\ncontexts\n  context U.\nfacts\n  facts W : { a:A }.\n",
        "7:9: unknown context 'W'",
    ),
    "saturate-state": (
        "bad.state", ["saturate", "chain.kb", "--state", "bad.state"],
        "ctxdl-state DIGEST\na:A@U\n  a : Zz @ U\n", "3:7: unknown concept name 'Zz'",
    ),
    "run-program": (
        "bad.p", ["run", "bad.p", "--kb", "chain.kb"],
        "skip;\n  add a:Zz@U\n", "2:9: unknown concept name 'Zz'",
    ),
    "apply-oracle-script": (
        "bad.jsonl", ["apply-oracle", "chain.kb", "--script", "bad.jsonl", "--payload", "scan-1"],
        '{"oracle": "probe", "match": oops}\n', "1:30: invalid JSON record: Expecting value",
    ),
    "apply-oracle-replay": (
        "bad.log", ["apply-oracle", "chain.kb", "--replay", "bad.log", "--payload", "scan-1"],
        '{"add": [], "del": [], "match": {"payload": "scan-1", "state": ""}, "oracle": "probe", "seq": 0}\n'
        '{"add": [], "seq": 1,, "oracle": "probe"}\n',
        "2:22: invalid JSON record: Expecting property name enclosed in double quotes",
    ),
    "stability-agent": (
        "bad.json", ["stability", "bad.json"],
        '{\n  "name": "n",\n  "kb" "sensor.kb"\n}\n', "3:8: invalid JSON: Expecting ':' delimiter",
    ),
    "stability-agent-kb": (
        "bad.kb", ["stability", "agent-kb.json"],
        "signature\n  concept A.\ntbox\n  A <= Zz.\n", "4:8: unknown concept name 'Zz'",
    ),
    "stability-agent-program": (
        "bad.p", ["stability", "agent-program.json"],
        "if probe:High@Obs then add scene:Obstacle@Obz else skip fi\n",
        "1:43: unknown context name 'Obz'",
    ),
    "stability-agent-script": (
        "bad.jsonl", ["stability", "agent-script.json"],
        '{"oracle": "stream", "match": {"payload": "*"}, "add": [probe:High@Obs]}\n',
        "1:57: invalid JSON record: Expecting value",
    ),
}


class TestInputFiles:
    """Each file a command reads fails the same way: exit 2, path and line."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        shutil.copytree(SAMPLES, tmp_path, dirs_exist_ok=True)
        agent = json.loads((SAMPLES / "sensor_constant.json").read_text(encoding="utf-8"))
        broken = {
            "kb": {"kb": "bad.kb"},
            "program": {"program": "bad.p"},
            "script": {"oracle": {**agent["oracle"], "script": "bad.jsonl"}},
        }
        for ref, change in broken.items():
            (tmp_path / f"agent-{ref}.json").write_text(json.dumps({**agent, **change}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_missing_file(self, capsys, workdir, kind):
        name, argv, _, _ = INPUT_FILES[kind]
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}: [Errno 2] ")

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_file_that_is_not_utf8(self, capsys, workdir, kind):
        name, argv, _, _ = INPUT_FILES[kind]
        (workdir / name).write_bytes(b"\xff\xfe\x00\x9d\x80\n")
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {name}:1: file is not valid UTF-8 text\n"

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_token_error_has_line_and_column(self, capsys, workdir, kind):
        from ctxdl.kb import signature_digest
        from ctxdl.kbfile import load_kb

        name, argv, text, message = INPUT_FILES[kind]
        digest = signature_digest(load_kb(workdir / "chain.kb").signature)
        (workdir / name).write_text(text.replace("DIGEST", digest), encoding="utf-8")
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {name}:{message}\n"

    @pytest.mark.parametrize(
        "field, value, needle, message",
        [
            ("input_context", "Nowhere", '"Nowhere"', "input_context 'Nowhere' is not a declared context"),
            ("projection", "scene:Obstacle", '"scene:Obstacle"', "projection must be a list of fact patterns"),
            ("projection", ["scene:Obstacle", "scene:Obstacel"], '"scene:Obstacel"',
             "projection pattern 'scene:Obstacel': unknown concept name 'Obstacel'"),
            ("fuel", 0, "0", "fuel must be at least 1"),
            ("fuel", "lots", '"lots"', "fuel must be an integer"),
            ("guards", "fuzzy", '"fuzzy"', "unknown guard mode 'fuzzy'"),
            ("seed_policy", [1], "[", "seed_policy must be an object"),
            ("seed_policy", {"kind": "random"}, '"random"', "unknown seed policy kind 'random'"),
            ("seed_policy", {"kind": "sequence", "start": "one"}, '"one"', "seed_policy value must be an integer"),
            ("oracle", {"queries": []}, "{", "oracle section needs a 'script' path"),
            ("oracle", {"script": "stream_constant.jsonl", "queries": "read-{seed}"}, '"read-{seed}"',
             "oracle queries must be a list of payload templates"),
            ("oracle", {"script": "stream_constant.jsonl", "queries": ["read-{seed}", "read-{sead}"]},
             '"read-{sead}"', "oracle query template 'read-{sead}': field {sead} is not a plain {seed} or {parity}"),
        ],
    )
    def test_agent_field_error_names_the_place_of_its_value(self, capsys, workdir, field, value, needle, message):
        agent = json.loads((SAMPLES / "sensor_constant.json").read_text(encoding="utf-8"))
        text = json.dumps({**agent, field: value}, indent=2)
        (workdir / "bad.json").write_text(text, encoding="utf-8")
        pos = text.index(needle, text.index(f'"{field}": '))
        line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        assert line > 1
        code, out, err = run_cli("stability", "bad.json", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: bad.json:{line}:{col}: {message}\n"

    def test_missing_agent_field_is_at_line_1(self, capsys, workdir):
        agent = json.loads((SAMPLES / "sensor_constant.json").read_text(encoding="utf-8"))
        del agent["projection"]
        (workdir / "bad.json").write_text(json.dumps(agent, indent=2), encoding="utf-8")
        code, out, err = run_cli("stability", "bad.json", capsys=capsys)
        assert (code, out, err) == (2, "", "error: bad.json:1: missing required field 'projection'\n")

    def test_oracle_flag_is_gone(self, capsys, workdir):
        code, _, err = run_cli(
            "apply-oracle", "chain.kb", "--script", "probe_session.jsonl",
            "--oracle", "probe", "--payload", "scan-1", capsys=capsys,
        )
        assert code == 2
        assert "unrecognized arguments: --oracle probe" in err


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ctxdl.cli", "check", str(SAMPLES / "sensing.kb")],
            capture_output=True,
            text=True, encoding="utf-8",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")

    def test_closed_stdout_exits_1_without_a_traceback(self, capsys, tmp_path):
        # The reader of stdout is gone before the report is written, as
        # after ``| head -1`` has its line: exit 1, and nothing on stderr.
        log = tmp_path / "session.log"
        chain = str(SAMPLES / "chain.kb")
        script = ["--script", str(SAMPLES / "probe_session.jsonl"), "--record", str(log)]
        assert main(["apply-oracle", chain, *script, "--payload", "scan-1"]) == 0
        capsys.readouterr()
        argv = ["apply-oracle", chain, "--replay", str(log), "--payload", "scan-1"]
        with subprocess.Popen(
            [sys.executable, "-m", "ctxdl.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")

    def test_tour_commands_load_only_their_layers(self, capsys, monkeypatch, tmp_path):
        # A fresh interpreter per command: in this process other tests have
        # already imported every module, so only a child shows a handler
        # that relies on an import it does not make itself.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from tour import TOUR

        assert sorted(TOUR) == sorted(TOUR_LOADS)
        children, inside = tmp_path / "children", tmp_path / "inside"
        shutil.copytree(SAMPLES, children)
        shutil.copytree(SAMPLES, inside)
        monkeypatch.chdir(inside)
        for label, argv in TOUR.items():
            argv = [*argv, "--format", "records"]
            proc = run_child(_RUN_AND_LIST_MODULES, *argv, cwd=children)
            assert proc.returncode == 0, (label, proc.stderr)
            loaded = set(proc.stderr.split())
            layers = {m.removeprefix("ctxdl.") for m in loaded if m.startswith("ctxdl.")}
            assert layers | ({"dataclasses", "hashlib", "numpy"} & loaded) == TOUR_LOADS[label], label
            assert run_cli(*argv, capsys=capsys) == (0, proc.stdout, ""), label

    def test_package_exports_load_on_first_use(self):
        proc = run_child(_PROBE_PACKAGE, stdin=json.dumps(sorted(PUBLIC_NAMES)))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["after_import"] == ["ctxdl"]
        assert seen["oracle_step"] is True
        assert seen["unknown"] == "AttributeError"
        assert len(PUBLIC_NAMES) == 104
        assert sorted(seen["resolved"]) == sorted(PUBLIC_NAMES)
        assert sorted(seen["star"]) == sorted(PUBLIC_NAMES)
        assert PUBLIC_NAMES <= set(seen["dir"])


# Runs the CLI with the given arguments, then lists the loaded modules on stderr.
_RUN_AND_LIST_MODULES = """
import sys
from ctxdl.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

_BASE_LAYERS = {"cli", "concepts", "contexts", "errors", "kb", "kbfile", "lexer", "reasoner", "values"}

# What each README-tour command imports, beyond the interpreter's own start.
TOUR_LOADS = {
    "check": _BASE_LAYERS | {"sheaf"},  # sensing.kb declares fact universes
    "sat": _BASE_LAYERS,
    "subsumes": _BASE_LAYERS,
    "saturate": _BASE_LAYERS | {"hashlib"},  # --dump writes the signature digest
    "run_promote": _BASE_LAYERS | {"programs"},
    "run_loop": _BASE_LAYERS | {"programs"},
    "apply_oracle_record": _BASE_LAYERS | {"oracle"},
    "apply_oracle_replay": _BASE_LAYERS | {"oracle"},
    "glue": _BASE_LAYERS | {"sheaf"},
    "stable": _BASE_LAYERS | {"sheaf"},
    "global_sections": _BASE_LAYERS | {"sheaf"},
    "stability": _BASE_LAYERS | {"agents", "dataclasses", "oracle", "programs", "sheaf"},  # agents.Agent
}

PUBLIC_NAMES = frozenset(
    """
    BudgetExceededError EngineError EvalAborted InteractionError LoadError
    OracleError ParseError RefinementChainError ReplayMismatchError
    ScriptLookupError SearchSpaceError UnknownNameError UnknownOracleError
    And Atomic BOT Bot ConceptExpr Exists Forall Not Or Signature TOP Top nnf
    parse_concept print_concept subconcepts
    ContextPoset Covering validate_covering
    FiniteModel TBox check_interpretation find_witness
    is_satisfiable subsumes
    Assertion AssertGuard ConceptAssertion Guard GuardAnd GuardNot
    KnowledgeState RoleAssertion SubsumeGuard abox_digest canonical_abox
    guard_sat parse_assertion saturate
    Conflict Fact Glued GluingResult Incompatible NonUnique
    Presheaf Section compatible global_sections glue restrict
    stable_under_refinement
    KBDocument load_kb load_state loads write_state
    OracleQuery OracleResponse OracleSpec ScriptedOracle load_script
    oracle_step record_session replay_session run_session
    Add Del EvalOutcome FuelExhausted If Program Seq Skip Terminated While
    evaluate evaluate_trace load_program parse_guard parse_program print_program
    Agent FactPattern LatentStructure Manifested SeedPolicy StabilityReport
    interact load_agent stability_check
    """.split()
)

# Probes the package surface in a fresh interpreter, resolving the names
# given on stdin; prints what it saw.
_PROBE_PACKAGE = """
import json, sys
import ctxdl
seen = {"after_import": sorted(m for m in sys.modules if m.startswith("ctxdl"))}
seen["oracle_step"] = ctxdl.oracle.oracle_step is sys.modules["ctxdl.oracle"].oracle_step
try:
    ctxdl.no_such_name
except AttributeError:
    seen["unknown"] = "AttributeError"
values = {name: getattr(ctxdl, name) for name in json.load(sys.stdin)}
modules = [m for name, m in sys.modules.items() if name.startswith("ctxdl.")]
# A name resolves to the object its defining module holds under that name.
seen["resolved"] = [
    name for name, value in values.items()
    if any(getattr(m, name, None) is value for m in modules)
]
star = {}
exec("from ctxdl import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
seen["dir"] = dir(ctxdl)
print(json.dumps(seen))
"""


DEEP_KB = """\
signature
  concept A, B.
  role r.
  individual a.
contexts
  context U.
tbox
  A <= B.
abox
  a : A @ U.
"""

# Each input opens n nesting levels. An `if` opens one itself.
NESTED = {
    "exists": lambda n: ("sat", "exists r." * n + "A"),
    "not": lambda n: ("sat", "!" * n + "A"),
    "parens": lambda n: ("sat", "(" * n + "A" + ")" * n),
    "guard-not": lambda n: ("run", "if " + "!" * (n - 1) + "a:A@U then skip else skip fi"),
    "guard-parens": lambda n: ("run", "if " + "(" * (n - 1) + "a:A@U" + ")" * (n - 1) + " then skip else skip fi"),
    "if": lambda n: ("run", "if a:A@U then " * n + "skip" + " else skip fi" * n),
    "while-in-if": lambda n: ("run", "if true then " * (n - 1) + "while false do skip od" + " else skip fi" * (n - 1)),
}


# Runs the command of stdin's first argv under a profile hook that keeps
# the deepest Python stack it reaches, then the second argv with the
# recursion limit MAX_NESTING levels of four frames above that depth.
_RUN_IN_FOUR_FRAMES_PER_LEVEL = """
import json, sys
from ctxdl.cli import main
from ctxdl.lexer import MAX_NESTING

base, deep = json.load(sys.stdin)
depth = deepest = 1  # this module's frame

def profile(frame, event, arg):
    global depth, deepest
    if event == "call":
        depth += 1
        deepest = max(deepest, depth)
    elif event == "return":
        depth -= 1

sys.setprofile(profile)
main(base)
sys.setprofile(None)
sys.setrecursionlimit(4 * MAX_NESTING + deepest)
sys.exit(main(deep))
"""


def nested_argv(tmp_path: Path, kind: str, levels: int) -> list[str]:
    """The CLI arguments that run NESTED[kind] at *levels* levels."""
    kb = tmp_path / "deep.kb"
    kb.write_text(DEEP_KB, encoding="utf-8")
    command, text = NESTED[kind](levels)
    if command == "sat":
        return ["sat", str(kb), text]
    program = tmp_path / "deep.p"
    program.write_text(text, encoding="utf-8")
    return ["run", str(program), "--kb", str(kb)]


class TestNestingLimit:
    """Input nested up to MAX_NESTING levels gets a verdict; one level more
    is a positioned parse error. Neither may end in a traceback."""

    @pytest.mark.parametrize("kind", sorted(NESTED))
    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_and_past_the_limit(self, tmp_path, kind, extra):
        argv = nested_argv(tmp_path, kind, MAX_NESTING + extra)
        proc = subprocess.run(
            [sys.executable, "-m", "ctxdl.cli", *argv], capture_output=True, text=True, encoding="utf-8"
        )
        assert "Traceback" not in proc.stderr
        if extra:
            assert proc.returncode == 2
            where = r"1:\d+" if argv[0] == "sat" else r".*deep\.p:1:\d+"
            assert re.fullmatch(f"error: {where}: nesting deeper than {MAX_NESTING} levels\n", proc.stderr)
        else:
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_at_the_limit_in_four_frames_per_level(self, tmp_path, kind):
        # The lexer's bound: parsing takes at most four Python frames per
        # level, and the tableau none, over the depth the command reaches
        # on input that opens no level beyond its own.
        (tmp_path / "base").mkdir()
        argvs = [nested_argv(tmp_path / "base", kind, 0), nested_argv(tmp_path, kind, MAX_NESTING)]
        proc = run_child(_RUN_IN_FOUR_FRAMES_PER_LEVEL, stdin=json.dumps(argvs))
        assert (proc.returncode, proc.stderr) == (0, "")


class TestFlatChains:
    """A flat chain opens no nesting level, so any length gets a verdict."""

    @pytest.mark.parametrize("n", [600, 3000])
    def test_sat_on_a_ladder_of_n_disjunctions(self, tmp_path, n):
        names = [f"A{i}" for i in range(1, n + 1)] + [f"B{i}" for i in range(1, n + 1)] + ["C"]
        kb = tmp_path / "ladder.kb"
        kb.write_text(f"signature\n  concept {', '.join(names)}.\n  role r.\n", encoding="utf-8")
        concept = " & ".join([f"(A{i} | B{i})" for i in range(1, n + 1)] + ["exists r.C", "forall r.!C"])
        proc = subprocess.run(
            [sys.executable, "-m", "ctxdl.cli", "sat", str(kb), concept, "--format", "records"],
            capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert records_of(proc.stdout) == [{"command": "sat", "concept": concept, "satisfiable": False}]
