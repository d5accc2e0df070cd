import hashlib
import io
import json
import sys

import pytest

from gr1kit import arena as ar
from gr1kit import cli
from gr1kit import gr1
from gr1kit.errors import (AdversaryIllegalMove, AdversaryNotFinite,
                           CapacityExceeded, Diagnostic, InvalidParams,
                           MissingBinding, NotRealizable, SpecError,
                           StrategyHole)
from gr1kit.speclang import parse_spec

from conftest import FIXED_NAMES_SPEC, STALLED_SPEC

REDUCED_ARGS = ["--param", "n=2", "--param", "bl_max=10",
                "--param", "delta_units=5", "--param", "bl_upper=9",
                "--param", "k_move=1", "--param", "k_drop=2"]


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "reduced.spec"
    assert run_cli(["emit", "--out", str(spec),
                    *REDUCED_ARGS, "--param", "bl_init=5"]) == 0
    strat = root / "reduced.strategy.json"
    assert run_cli(["synth", str(spec), "--out", str(strat)]) == 0
    return root, spec, strat


def test_emit_defaults_parse(tmp_path, capsys):
    assert run_cli(["emit"]) == 0
    text = capsys.readouterr().out
    doc = parse_spec(text)
    assert [d.name for d in doc.vars][:2] == ["bl", "s"]


def test_emit_n1_has_no_obstacles(capsys):
    assert run_cli(["emit", "--param", "n=1", "--param", "delta_units=10",
                    "--param", "bl_upper=20", "--param", "bl_init=12"]) == 0
    doc = parse_spec(capsys.readouterr().out)
    assert not any(d.name.startswith("o") for d in doc.vars)


def test_emit_rejects_unknown_param(capsys):
    assert run_cli(["emit", "--param", "bogus=3"]) == 2


@pytest.mark.parametrize("item", ["n=abc", "n=2.5", "bl_init=3..x",
                                  "hf_init=banana", "hf_init=2"])
def test_emit_rejects_bad_param_value(tmp_path, capsys, item):
    key, value = item.split("=")
    assert run_cli(["emit", "--param", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and repr(value) in err
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"{item}\n")
    assert run_cli(["emit", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_emit_rejects_spec_that_synth_rejects(tmp_path, capsys):
    # a bl range past 64 bits used to be written, and synth then refused it
    out = tmp_path / "big.spec"
    assert run_cli(["emit", "--param", "bl_max=99999999999999999999",
                    "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: TypeMismatch")
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# reduced\n\nn = 2\n   \nbl_init = 4   # comment\n")
    assert run_cli(["emit", "--config", str(cfg),
                    "--param", "bl_init=7"]) == 0
    text = capsys.readouterr().out
    assert "bl = 7" in text and "rs : 0..2" in text


def test_synth_realizable_exit0(workdir):
    root, spec, strat = workdir
    obj = json.loads(strat.read_text())
    assert obj["goals"] == 1 and obj["nodes"]


@pytest.mark.parametrize("params, digest", [
    (["bl_init=9"],
     "daa3b2ff8ab91cc0a83e6c13e91906b2d8fbd702cd2fda22b2465821ceb34d2f"),
    (["bl_init=12"],
     "c43136e03bf2d0e185768cb893afd1a82735eb898096c3515708d9476085366a"),
    (["bl_init=26"],
     "9ceb03c69e02a4501f688f2eaf80747b802a0335278801f1ea5cef93d9feff41"),
    (["n=4", "k_move=1", "k_drop=3"],
     "22545e7f6c6ac6db59c507bb7d66fb05d88aac3c7d681dfaf466bd06ae9b5de1"),
], ids=["n3b9", "n3b12", "n3b26", "n4k1k3"])
def test_synth_controller_bytes_are_pinned(tmp_path, params, digest):
    # the headline path: emit, then synth through the CLI; pinned before
    # the arena stored its responses per move group
    spec, out = tmp_path / "w.spec", tmp_path / "w.json"
    args = [arg for p in params for arg in ("--param", p)]
    assert run_cli(["emit", "--out", str(spec), *args]) == 0
    assert run_cli(["synth", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_synth_unrealizable_exit10(tmp_path, capsys):
    spec = tmp_path / "low.spec"
    assert run_cli(["emit", "--out", str(spec),
                    *REDUCED_ARGS, "--param", "bl_init=1"]) == 0
    assert run_cli(["synth", str(spec)]) == 10
    spec0 = tmp_path / "zero.spec"
    assert run_cli(["emit", "--out", str(spec0),
                    *REDUCED_ARGS, "--param", "bl_init=0"]) == 0
    assert run_cli(["synth", str(spec0)]) == 10


# u never changes, so with u : 0..<hi> every u >= 2 loses the goal u <= 1;
# the sys init clause x = u & x <= 1 has no completion for u >= 2 either
ESCAPE_SPEC = ("[ENV_VARS]\nu : 0..{hi}\n[SYS_VARS]\nx : 0..3\n"
               "[ENV_TRANS]\nu' = u\n")


@pytest.mark.parametrize("hi, extra, head, tail", [
    (3, "[SYS_INIT]\nx = u & x <= 1\n",
     "2 of 4 initial environment assignments admit no initial system "
     "assignment", []),
    (3, "[SYS_LIVENESS]\nu <= 1\n",
     "8 of 16 states winning, but 2 of 4 initial environment assignments "
     "escape", []),
    (9, "[SYS_LIVENESS]\nu <= 1\n",
     "8 of 40 states winning, but 8 of 10 initial environment assignments "
     "escape", ["  u=4", "  u=5", "  u=6", "  ... and 3 more"]),
], ids=["init", "game", "capped"])
def test_synth_unrealizable_names_escapes(tmp_path, capsys, hi, extra, head,
                                          tail):
    spec = tmp_path / "escape.spec"
    spec.write_text(ESCAPE_SPEC.format(hi=hi) + extra)
    assert run_cli(["synth", str(spec)]) == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"unrealizable: {head} (")
    assert lines[1:] == ["  u=2", "  u=3"] + tail


def test_synth_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("[ENV_VARS]\nbl bl bl\n")
    assert run_cli(["synth", str(bad)]) == 2


def test_synth_non_ascii_digits_exit2(tmp_path, capsys):
    bad = tmp_path / "digits.spec"
    bad.write_bytes("[ENV_VARS]\nx : \u0661..\u0663\n[ENV_INIT]\n"
                    "x = \u0662\n".encode("utf-8"))
    assert run_cli(["synth", str(bad)]) == 2


@pytest.mark.parametrize("decls, clause", [
    ("u : 0..3\n[SYS_VARS]\nx : 0..3", "x' = x + 99999999999999999999"),
    ("u : 0..3\n[SYS_VARS]\nx : 0..3",
     "x' + 9223372036854775807 < u + 9223372036854775807"),
    ("u : 9223372036854775800..9223372036854775809\n[SYS_VARS]\nx : bool",
     "x' <-> x"),
], ids=["offset", "sum", "bound"])
def test_synth_64_bit_overflow_exit2(tmp_path, capsys, decls, clause):
    # unchecked, these raised OverflowError, built an arena from wrapped
    # sums, or wrote a wrapped value into the controller
    bad = tmp_path / "wide.spec"
    bad.write_text(f"[ENV_VARS]\n{decls}\n[SYS_TRANS]\n{clause}\n")
    out = tmp_path / "wide.json"
    assert run_cli(["synth", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TypeMismatch") and "Traceback" not in err
    assert not out.exists()


def test_synth_capacity_exit5(tmp_path, capsys):
    spec = tmp_path / "big.spec"
    assert run_cli(["emit", "--out", str(spec)]) == 0
    assert run_cli(["synth", str(spec), "--cap", "1000"]) == 5


def test_simulate_deterministic_csv(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert run_cli(["simulate", str(strat), "--steps", "60",
                        "--seed", "9", "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()
    # without --out the same CSV goes to stdout
    capsys.readouterr()
    assert run_cli(["simulate", str(strat), "--steps", "60",
                    "--seed", "9"]) == 0
    assert capsys.readouterr().out == out1.read_text()
    header = out1.read_text().splitlines()[0]
    assert header == "step,time_s,bl,s,o1,stalled,rs,act,hf,tries,human_away"


def test_simulate_batch_runs(workdir, tmp_path):
    root, spec, strat = workdir
    out = tmp_path / "batch.csv"
    assert run_cli(["simulate", str(strat), "--steps", "20", "--seed", "5",
                    "--runs", "3", "--out", str(out)]) == 0
    batch = [(tmp_path / f"batch.csv.{k:03d}").read_text() for k in range(3)]
    assert len(set(batch)) == 3            # distinct derived seeds
    single = tmp_path / "one.csv"
    assert run_cli(["simulate", str(strat), "--steps", "20", "--seed", "6",
                    "--out", str(single)]) == 0
    assert batch[1] == single.read_text()  # run k uses seed base+k
    assert run_cli(["simulate", str(strat), "--runs", "2"]) == 2


def test_simulate_scripted_events(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    events = tmp_path / "ev.txt"
    events.write_text("step=5 human_away=1 duration=3\n")
    out = tmp_path / "t.csv"
    assert run_cli(["simulate", str(strat), "--steps", "20", "--seed", "1",
                    "--adversary", "scripted", "--events", str(events),
                    "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    frozen = [r for r in rows if r.endswith(",1")]
    assert len(frozen) == 3


def test_simulate_hole_exit3(workdir, tmp_path):
    root, spec, strat = workdir
    obj = json.loads(strat.read_text())
    for node in obj["nodes"]:
        node["edges"] = []
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj))
    assert run_cli(["simulate", str(broken), "--steps", "5"]) == 3
    noinit = tmp_path / "noinit.json"
    noinit.write_text(json.dumps(dict(json.loads(strat.read_text()), init=[])))
    assert run_cli(["simulate", str(noinit), "--steps", "5"]) == 3


def test_simulate_interactive_mode(workdir, tmp_path, monkeypatch, capsys):
    root, spec, strat = workdir
    monkeypatch.setattr(sys, "stdin", io.StringIO("0\n" * 10))
    out = tmp_path / "i.csv"
    assert run_cli(["simulate", str(strat), "--adversary", "interactive",
                    "--steps", "3", "--out", str(out)]) == 0
    assert "environment move" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 5


def test_check_safety_pass_and_fail(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    trace = tmp_path / "t.csv"
    assert run_cli(["simulate", str(strat), "--steps", "40", "--seed", "3",
                    "--out", str(trace)]) == 0
    assert run_cli(["check", "--spec", str(spec), "--mode", "safety",
                    "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    parts = lines[20].split(",")
    parts[lines[0].split(",").index("bl")] = "0"    # zero backlog mid-trace
    lines[20] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli(["check", "--spec", str(spec), "--mode", "safety",
                    "--trace", str(bad)]) == 4


@pytest.mark.parametrize("text", [STALLED_SPEC, FIXED_NAMES_SPEC],
                         ids=["stalled", "fixed-names"])
def test_simulated_trace_passes_safety(tmp_path, capsys, text):
    spec, strat, trace = (tmp_path / name
                          for name in ("s.spec", "s.json", "t.csv"))
    spec.write_text(text)
    assert run_cli(["synth", str(spec), "--out", str(strat)]) == 0
    assert run_cli(["simulate", str(strat), "--seed", "1", "--steps", "8",
                    "--out", str(trace)]) == 0
    assert run_cli(["check", "--spec", str(spec), "--mode", "safety",
                    "--trace", str(trace)]) == 0


def test_check_recurrence(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    trace = tmp_path / "t.csv"
    assert run_cli(["simulate", str(strat), "--steps", "120", "--seed", "3",
                    "--adversary", "min-bl", "--out", str(trace)]) == 0
    assert run_cli(["check", "--spec", str(spec), "--mode", "lasso",
                    "--strategy", str(strat), "--adversary", "min-bl"]) == 0
    gap = None
    out = capsys.readouterr().out
    for line in out.splitlines():
        if "max goal gap" in line:
            gap = int(line.split(":")[1])
    assert gap is not None
    assert run_cli(["check", "--spec", str(spec), "--mode", "recurrence",
                    "--trace", str(trace), "--window", str(gap)]) == 0
    assert run_cli(["check", "--spec", str(spec), "--mode", "recurrence",
                    "--trace", str(trace), "--window", "1"]) == 4


def test_check_json_output(workdir, capsys):
    root, spec, strat = workdir
    assert run_cli(["check", "--spec", str(spec), "--mode", "lasso",
                    "--strategy", str(strat), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True and obj["max_goal_gap"] >= 1


def test_check_closure(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    assert run_cli(["check", "--spec", str(spec), "--mode", "closure",
                    "--strategy", str(strat)]) == 0
    obj = json.loads(strat.read_text())
    obj["nodes"][0]["edges"] = obj["nodes"][0]["edges"][:1]
    broken = tmp_path / "hole.json"
    broken.write_text(json.dumps(obj))
    assert run_cli(["check", "--spec", str(spec), "--mode", "closure",
                    "--strategy", str(broken)]) == 4


def test_check_closure_reads_init_entries(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    obj = json.loads(strat.read_text())
    (entry,) = obj["init"]
    for init in ([], [dict(entry, node=1)],
                 [dict(entry, env=dict(entry["env"], bl=6, s=1, o1=1,
                                       stalled=1))]):
        broken = tmp_path / "init.json"
        broken.write_text(json.dumps(dict(obj, init=init)))
        assert run_cli(["check", "--spec", str(spec), "--mode", "closure",
                        "--strategy", str(broken)]) == 4
        assert "at init: [init]" in capsys.readouterr().out


def test_check_lasso_without_initial_nodes_exit4(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    broken = tmp_path / "noinit.json"
    broken.write_text(json.dumps(dict(json.loads(strat.read_text()), init=[])))
    assert run_cli(["check", "--spec", str(spec), "--mode", "lasso",
                    "--strategy", str(broken)]) == 4
    out = capsys.readouterr().out
    assert "strategy has no initial nodes" in out and "PASS" not in out


def test_oracle_random_corpus(capsys):
    assert run_cli(["oracle", "--random", "10", "--seed", "0"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_oracle_reports_mismatches(workdir, monkeypatch, capsys):
    root, spec, strat = workdir
    oracle = gr1.brute_force_oracle

    def one_flipped(*args, **kwargs):
        winning = oracle(*args, **kwargs)
        winning[0] = not winning[0]
        return winning

    monkeypatch.setattr(gr1, "brute_force_oracle", one_flipped)
    n_states = ar.build_arena(parse_spec(spec.read_text())).n_states
    assert run_cli(["oracle", "--spec", str(spec)]) == 4
    assert capsys.readouterr().out == (
        f"MISMATCH on 1 of {n_states} states\n")
    assert run_cli(["oracle", "--random", "3", "--seed", "5"]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "MISMATCH at seed 5", "MISMATCH at seed 6", "MISMATCH at seed 7",
        "3 random arenas checked, 3 mismatches"]


def test_oracle_random_capacity_exit5(capsys):
    # the arena of seed 0 has 64 states
    assert run_cli(["oracle", "--random", "5", "--max-states", "50"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and "cap 50" in err


def test_oracle_negative_random_exit2(capsys):
    assert run_cli(["oracle", "--random", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--random" in captured.err and "checked" not in captured.out


def test_oracle_spec_instance(workdir, capsys):
    root, spec, strat = workdir
    assert run_cli(["oracle", "--spec", str(spec)]) == 0
    assert "agreement" in capsys.readouterr().out


def test_oracle_capacity_exit5(tmp_path, capsys):
    spec = tmp_path / "big.spec"
    assert run_cli(["emit", "--out", str(spec)]) == 0
    assert run_cli(["oracle", "--spec", str(spec)]) == 5


HUGE_SPEC = "[ENV_VARS]\nu : 0..9999\n[SYS_VARS]\nx : 0..9999\n"


def test_check_closure_capacity_exit5(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    big = tmp_path / "huge.spec"
    big.write_text(HUGE_SPEC)
    assert run_cli(["check", "--spec", str(big), "--mode", "closure",
                    "--strategy", str(strat)]) == 5
    assert "cap" in capsys.readouterr().err


def test_oracle_spec_capacity_exit5(tmp_path, capsys):
    big = tmp_path / "huge.spec"
    big.write_text(HUGE_SPEC)
    assert run_cli(["oracle", "--spec", str(big)]) == 5
    assert "cap" in capsys.readouterr().err


def test_simulate_bad_strategy_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["simulate", str(bad), "--steps", "5"]) == 2
    assert run_cli(["simulate", str(tmp_path / "missing.json")]) == 2
    assert "cannot load strategy" in capsys.readouterr().err


def test_check_bad_strategy_exit2(workdir, tmp_path, capsys):
    root, spec, strat = workdir
    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": ["bl"]}')
    obj = json.loads(strat.read_text())
    obj["nodes"][0]["edges"][0]["next"] = 1_000_000
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps(obj))
    for path in (bad, tmp_path / "missing.json", dangling):
        for mode in ("lasso", "closure"):
            assert run_cli(["check", "--spec", str(spec), "--mode", mode,
                            "--strategy", str(path)]) == 2
    assert run_cli(["simulate", str(dangling), "--steps", "5"]) == 2
    assert "cannot load strategy" in capsys.readouterr().err


CHECK = ["check", "--spec", "{spec}", "--mode"]
SIMULATE = ["simulate", "{strat}", "--steps", "5", "--adversary", "scripted"]
OK_CHECK = ["check", "--spec", "{ok_spec}", "--mode"]
# `x = 0 | ok` holds on every row of NO_OK_CSV without reading `ok`
OK_SPEC = ("[ENV_VARS]\nok : bool\n[SYS_VARS]\nx : 0..3\n"
           "[SYS_TRANS]\nok' -> x' = 0\n[SYS_LIVENESS]\nx = 0 | ok\n")
NO_OK_CSV = "step,time_s,x,human_away\n0,0,0,0\n1,10,0,0\n2,20,0,0\n"


@pytest.mark.parametrize("argv", [
    CHECK + ["safety", "--trace", "{missing}"],
    CHECK + ["safety", "--trace", "{not_csv}"],
    CHECK + ["safety", "--trace", "{bad_row}"],
    OK_CHECK + ["safety", "--trace", "{dup_column}"],
    CHECK + ["recurrence", "--window", "5", "--trace", "{missing}"],
    CHECK + ["recurrence", "--window", "5", "--trace", "{bad_row}"],
    CHECK + ["recurrence", "--window", "5", "--trace", "{trace}",
             "--goal", "3"],
    CHECK + ["recurrence", "--window", "5", "--trace", "{trace}",
             "--goal", "-1"],
    CHECK[:2] + ["{missing}", "--mode", "safety", "--trace", "{trace}"],
    ["emit", "--config", "{missing}"],
    ["synth", "{missing}"],
    ["oracle", "--spec", "{missing}"],
    SIMULATE + ["--events", "{missing}"],
    SIMULATE + ["--events", "{bad_events}"],
    ["emit", "--out", "{unwritable}"],
    ["synth", "{spec}", "--out", "{unwritable}"],
    SIMULATE + ["--out", "{unwritable}"],
    OK_CHECK + ["safety", "--trace", "{no_ok}"],
    OK_CHECK + ["recurrence", "--window", "2", "--trace", "{no_ok}"],
    OK_CHECK + ["lasso", "--strategy", "{strat}", "--adversary", "min-bl"],
    OK_CHECK + ["safety", "--trace", "{huge}"],
    ["simulate", "{strat}", "--steps", "0"],
    CHECK + ["recurrence", "--window", "-3", "--trace", "{trace}"],
    SIMULATE + ["--events", "{set_unknown}"],
    SIMULATE + ["--events", "{set_sys}"],
    SIMULATE[:5] + ["min-bl", "--events", "{set_unknown}"],
    SIMULATE[:5] + ["min-bl", "--events", "{set_sys}"],
    SIMULATE + ["--events", "{away_5}"],
    SIMULATE + ["--events", "{duration_minus_3}"],
    SIMULATE + ["--events", "{step_minus_1}"],
    ["simulate", "{strat}", "--runs", "0", "--out", "{trace}"],
    ["simulate", "{strat}", "--runs", "-3", "--out", "{trace}"],
    ["simulate", "{strat}", "--td", "0"],
    ["simulate", "{strat}", "--td", "-5"],
    ["simulate", "{strat}", "--td", "nan"],
    ["simulate", "{strat}", "--td", "inf"],
    CHECK + ["closure", "--strategy", "{float_strat}"],
    ["emit", "--config", "{not_utf8}"],
    ["simulate", "{strat}", "--steps", "5", "--td", "1e308"],
    ["simulate", "{strat}", "--steps", "99999999999999999999"],
    ["emit", "--param", "td_seconds=nan"],
    ["synth", "{spec}", "--cap", "0"],
    ["synth", "{spec}", "--cap", "-1"],
    ["oracle", "--random", "2", "--max-states", "0"],
    ["oracle", "--random", "2", "--max-states", "-5"],
    ["emit", "--param", "td_seconds=10"],
    CHECK + ["safety"],
    CHECK + ["lasso"],
    ["emit", "--config", "{no_equals}"],
    ["emit", "--param", "n"],
    SIMULATE + ["--events", "{misspelt_duration}"],
    SIMULATE + ["--events", "{set_twice}"],
    SIMULATE + ["--events", "{duration_without_away}"],
    SIMULATE + ["--events", "{away_twice}"],
    SIMULATE + ["--events", "{away_without_duration}"],
    SIMULATE + ["--events", "{away_for_0_steps}"],
    ["simulate", "{dup_vars}", "--steps", "5"],
], ids=["safety-missing", "safety-not-csv", "safety-bad-row",
        "safety-duplicate-column",
        "recurrence-missing", "recurrence-bad-row", "goal-3", "goal-minus-1",
        "check-spec-missing", "emit-config-missing", "synth-spec-missing", "oracle-spec-missing",
        "events-missing", "events-malformed", "emit-out-unwritable",
        "synth-out-unwritable", "simulate-out-unwritable",
        "safety-trace-lacks-var", "recurrence-trace-lacks-var",
        "lasso-strategy-lacks-var", "safety-value-overflows",
        "simulate-steps-0", "recurrence-window-minus-3",
        "set-unknown-var", "set-sys-var", "min-bl-set-unknown-var",
        "min-bl-set-sys-var", "human-away-5", "duration-minus-3",
        "step-minus-1", "simulate-runs-0", "simulate-runs-minus-3",
        "simulate-td-0", "simulate-td-minus-5", "simulate-td-nan",
        "simulate-td-inf", "closure-float-value", "emit-config-not-utf8",
        "simulate-td-1e308", "simulate-steps-huge", "emit-td-seconds-nan",
        "synth-cap-0", "synth-cap-minus-1", "oracle-max-states-0",
        "oracle-max-states-minus-5", "emit-td-seconds-unknown",
        "safety-without-trace", "lasso-without-strategy",
        "emit-config-line-without-equals", "emit-param-without-equals",
        "misspelt-duration", "set-twice", "duration-without-away",
        "away-twice", "away-without-duration", "away-for-0-steps",
        "strategy-repeats-var"])
def test_bad_input_exit2(workdir, tmp_path, capsys, argv):
    root, spec, strat = workdir
    files = {"missing": tmp_path / "missing.txt",
             "not_csv": tmp_path / "not.csv", "bad_row": tmp_path / "row.csv",
             "trace": tmp_path / "ok.csv", "bad_events": tmp_path / "ev.txt",
             "unwritable": tmp_path / "no_such_dir" / "out",
             "ok_spec": tmp_path / "ok.spec", "no_ok": tmp_path / "no_ok.csv",
             "huge": tmp_path / "huge.csv"}
    for name, text in (("set_unknown", "step=2 set foo=1"),
                       ("set_sys", "step=2 set rs=1"),
                       ("away_5", "step=2 human_away=5"),
                       ("duration_minus_3", "step=2 human_away=1 duration=-3"),
                       ("step_minus_1", "step=-1 set s=0"),
                       ("misspelt_duration", "step=2 human_away=1 duraton=3"),
                       ("set_twice", "step=2 set s=1\nstep=2 set s=0"),
                       ("duration_without_away",
                        "step=2 human_away=1 duration=3\n"
                        "step=4 human_away=0 duration=9"),
                       ("away_twice", "step=2 human_away=1 duration=3\n"
                                      "step=2 human_away=1 duration=1"),
                       ("away_without_duration", "step=3 human_away=1"),
                       ("away_for_0_steps", "step=3 human_away=1 duration=0"),
                       ("no_equals", "# reduced\n\nn = 2\nbl_init")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text + "\n")
    files["not_csv"].write_text("a,b\n1,2\n")
    files["ok_spec"].write_text(OK_SPEC)
    files["no_ok"].write_text(NO_OK_CSV)
    files["huge"].write_text("step,time_s,ok,x,human_away\n"
                             "0,0,0,99999999999999999999,0\n")
    files["bad_row"].write_text("step,time_s,bl,human_away\n0,0,x,0\n")
    files["dup_column"] = tmp_path / "dup.csv"
    files["dup_column"].write_text("step,time_s,ok,x,ok,human_away\n"
                                   "0,0,0,2,1,0\n")
    files["not_utf8"] = tmp_path / "bad.cfg"
    files["not_utf8"].write_bytes(b"n=\xff\xfe2\n")
    obj = json.loads(strat.read_text())
    obj["nodes"][0]["state"]["bl"] += 0.7
    files["float_strat"] = tmp_path / "float.json"
    files["float_strat"].write_text(json.dumps(obj))
    obj = json.loads(strat.read_text())
    obj["vars"].append(obj["vars"][-1])
    files["dup_vars"] = tmp_path / "dup_vars.json"
    files["dup_vars"].write_text(json.dumps(obj))
    assert run_cli(["simulate", str(strat), "--steps", "5",
                    "--out", str(files["trace"])]) == 0
    files["bad_events"].write_text("at=3 set s=0\n")
    args = [a.format(spec=spec, strat=strat, **files) for a in argv]
    assert run_cli(args) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("mode, missing", [
    (["safety"], "ok missing from trace"),
    (["recurrence", "--window", "9"], "ok missing from current valuation"),
], ids=["safety", "recurrence"])
def test_check_names_missing_variable(tmp_path, capsys, mode, missing):
    spec, trace = tmp_path / "ok.spec", tmp_path / "trace.csv"
    spec.write_text(OK_SPEC)
    trace.write_text(NO_OK_CSV)
    assert run_cli(["check", "--spec", str(spec), "--mode", *mode,
                    "--trace", str(trace)]) == 2
    assert missing in capsys.readouterr().err


TWO_DIAGNOSTICS = SpecError([Diagnostic(Diagnostic.SYNTAX, "first", 1, 1),
                             Diagnostic(Diagnostic.DUPLICATE, "second", 2, 1)])


@pytest.mark.parametrize("exc, code, lines", [
    (CapacityExceeded("cap"), 5, 1),
    (StrategyHole("hole"), 3, 1),
    (TWO_DIAGNOSTICS, 2, 2),
    (InvalidParams("params"), 2, 1),
    (MissingBinding("binding"), 2, 1),
    (AdversaryNotFinite("adversary"), 2, 1),
    (AdversaryIllegalMove("move"), 2, 1),
    (NotRealizable("game"), 2, 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_table(monkeypatch, capsys, exc, code, lines):
    def raises(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_synth", raises)
    assert run_cli(["synth", "any.spec"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.split(" ")[0] for line in err.splitlines()] == ["error:"] * lines
