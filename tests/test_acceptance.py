"""Acceptance criteria, one test per criterion.

Each test prints a single summarizing line; the pytest verdict per test is
the pass/fail line for the criterion.  Runs against the default scenario
parameters (workstation at cell 3, backlog 0..30 units, refill 15 units,
ceiling 26, move drain 2, dropoff drain 5).
"""

import random
import time

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import check
from gr1kit import cli
from gr1kit import gr1
from gr1kit import sim
from gr1kit import workdelivery as wd
from gr1kit.errors import SpecError
from gr1kit.speclang import parse_spec, print_spec

from conftest import REDUCED
from genspec import random_document

BAND_LO, BAND_HI = 9, 26
LAUNCH_BOUND = 26 - 15          # ceiling minus refill
SYNTH_SECONDS = 5.0             # hard per-instance budget
RANDOM_SEEDS = 20
SIM_STEPS = 180                 # 30 minutes at 10 s per step


@pytest.fixture(scope="module")
def band_scan(paper_arena, paper_result):
    verdicts = {}
    for b in range(0, 31):
        doc_b = wd.emit_spec(wd.WorkDeliveryParams(bl_init=b))
        arena_b = ar.with_inits(paper_arena, doc_b)
        verdicts[b] = gr1.is_realizable(paper_result, arena_b)
    return verdicts


@pytest.fixture(scope="module")
def acceptance_traces(strategy_for, scenario):
    """All closed-loop traces used by criteria 4-6, keyed by
    (bl_init, adversary, seed)."""
    traces = {}
    for b in (12, 9, 26):
        st = strategy_for(b)
        for seed in range(RANDOM_SEEDS):
            traces[(b, "random", seed)] = sim.run(
                st, sim.make_adversary("random", seed=seed), SIM_STEPS)
        for kind in ("min-bl", "max-bl"):
            traces[(b, kind, 0)] = sim.run(
                st, sim.make_adversary(kind), SIM_STEPS)
    return traces


def node_values(st, name):
    """One variable's value at every node of a controller."""
    return st.node_vals[:, st.names.index(name)]


def test_criterion_01_realizability_band(tmp_path):
    """Every bl_init in 9..26 synthesizes, end to end through the CLI."""
    times = []
    for b in range(BAND_LO, BAND_HI + 1):
        spec = tmp_path / f"wd_{b}.spec"
        assert cli.main(["emit", "--param", f"bl_init={b}",
                         "--out", str(spec)]) == 0
        t0 = time.perf_counter()
        code = cli.main(["synth", str(spec)])
        dt = time.perf_counter() - t0
        times.append(dt)
        assert code == 0, f"bl_init={b} must be realizable"
        assert dt < SYNTH_SECONDS, f"bl_init={b} took {dt:.2f}s"
    quick = sum(1 for dt in times if dt < 1.0)
    print(f"\nCRITERION 1 PASS: bl_init 9..26 all realizable; "
          f"synth per instance {min(times):.2f}-{max(times):.2f}s "
          f"(budget {SYNTH_SECONDS:.0f}s; {quick}/{len(times)} under 1s)")


def test_criterion_02_unrealizable_outside_band(band_scan):
    for b in (0, 27, 28, 29, 30):
        assert band_scan[b] is False, f"bl_init={b} must be unrealizable"
    print("\nCRITERION 2 PASS: bl_init 0 and 27..30 all unrealizable")


def test_criterion_03_monotone_threshold(band_scan):
    values = [band_scan[b] for b in range(1, 27)]
    for lo, hi in zip(values, values[1:]):
        assert hi or not lo, "realizability must be monotone in bl_init"
    threshold = next(b for b in range(1, 27) if band_scan[b])
    assert threshold <= 9, f"threshold {threshold} exceeds 9"
    assert all(not band_scan[b] for b in range(0, threshold))
    note = "" if threshold == 9 else \
        f" (deviates from 9; see the encoding notes)"
    print(f"\nCRITERION 3 PASS: realizability monotone, threshold "
          f"b*={threshold}{note}")


def test_criterion_04_robustness_runs(acceptance_traces, strategy_for,
                                      scenario):
    checked = nodes = 0
    for b in (12, 9, 26):
        doc, arena, result = scenario(b)
        st = strategy_for(b)
        # every node of the controller, not only the sampled runs
        bl = node_values(st, "bl")
        assert bl.min() >= 1 and bl.max() <= 26, b
        nodes += st.n_nodes
        gaps = []
        for kind in ("min-bl", "max-bl"):
            lv = check.lasso_check(st, sim.make_adversary(kind), doc)
            assert lv.passed, lv.render()
            gaps.append(lv.max_goal_gap)
        window = max(gaps)
        goal = doc.sys_liveness[0]
        for (bb, kind, seed), tr in acceptance_traces.items():
            if bb != b:
                continue
            assert tr.n_steps() == SIM_STEPS
            sv = check.check_safety(tr, doc)
            assert sv.passed, (b, kind, seed, sv.render())
            bls = [r.state["bl"] for r in tr.rows]
            assert min(bls) >= 1 and max(bls) <= 26
            rv = check.check_recurrence(tr, goal, window)
            assert rv.passed, (b, kind, seed, window)
            checked += 1
    print(f"\nCRITERION 4 PASS: {checked} runs of {SIM_STEPS} steps safe "
          f"(1 <= BL <= 26) and recurrent under the lasso window; "
          f"1 <= BL <= 26 at all {nodes} controller nodes")


def test_criterion_05_retry_shape(strategy_for, scenario):
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    probe = sim.run(st, sim.make_adversary("min-bl"), 60)
    k = next(r.index for r in probe.rows if r.state["tries"] == 1)
    events = sim.parse_events(f"step={k} set s=0")
    tr = sim.run(st, sim.make_adversary("min-bl"), 60, events=events)
    first, second, after = tr.rows[k], tr.rows[k + 1], tr.rows[k + 2]
    assert first.state["tries"] == 1 and first.state["s"] == 0
    assert second.state["tries"] == 2 and second.state["s"] == 1
    assert second.state["hf"] == 1 and after.state["hf"] == 0
    assert check.check_safety(tr, doc).passed
    print(f"\nCRITERION 5 PASS: forced miss at step {k} yields tries "
          f"1 -> 2, success on the second try, hand empty the step after")


def test_criterion_06_delivery_timing(acceptance_traces, strategy_for):
    launches = 0
    refills = 0
    # every node and edge of the controllers, not only the sampled runs
    graph_launches = graph_refills = 0
    for b in (12, 9, 26):
        st = strategy_for(b)
        bl = node_values(st, "bl")
        launch = (node_values(st, "act") == 3) & (node_values(st, "rs") != 3)
        assert (bl[launch] <= LAUNCH_BOUND).all(), b
        source = np.repeat(np.arange(st.n_nodes), np.diff(st.edge_indptr))
        refill = bl[st.edge_next] > bl[source]
        assert (bl[source[refill]] <= LAUNCH_BOUND).all(), b
        graph_launches += launch.sum()
        graph_refills += refill.sum()
    assert graph_launches and graph_refills
    for (b, kind, seed), tr in acceptance_traces.items():
        rows = tr.rows
        for r in rows:
            if r.state["act"] == 3 and r.state["rs"] != 3:
                assert r.state["bl"] <= LAUNCH_BOUND, (b, kind, seed, r.state)
                launches += 1
        for prev, cur in zip(rows, rows[1:]):
            if cur.state["bl"] > prev.state["bl"]:
                assert prev.state["bl"] <= LAUNCH_BOUND
                refills += 1
    # with a full backlog the controller defers delivery until it drains
    tr26 = acceptance_traces[(26, "max-bl", 0)]
    first_refill = next(i for i in range(1, len(tr26.rows))
                        if tr26.rows[i].state["bl"] >
                        tr26.rows[i - 1].state["bl"])
    assert all(r.state["bl"] > LAUNCH_BOUND
               for r in tr26.rows[:first_refill - 1])
    print(f"\nCRITERION 6 PASS: {launches} workstation launches and "
          f"{refills} refills, all committed at BL <= {LAUNCH_BOUND}; "
          f"full-backlog start defers to step {first_refill}; so are the "
          f"{graph_launches} launch nodes and {graph_refills} refill edges "
          f"of the controllers")


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(100):
        arena, env_live, sys_live = ar.random_arena(seed, max_states=200)
        res = gr1.solve(arena, env_live, sys_live)
        oracle = gr1.brute_force_oracle(arena, env_live, sys_live)
        assert np.array_equal(res.winning, oracle), f"seed {seed}"
    doc = wd.emit_spec(wd.WorkDeliveryParams(bl_init=5, **REDUCED))
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, doc.env_liveness, doc.sys_liveness)
    oracle = gr1.brute_force_oracle(arena, doc.env_liveness,
                                    doc.sys_liveness)
    assert np.array_equal(res.winning, oracle)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"\nCRITERION 7 PASS: solver matches the brute-force oracle on "
          f"100 random arenas and the reduced instance "
          f"({arena.n_states} states) in {dt:.1f}s")


def test_criterion_08_strategy_closure(strategy_for, scenario):
    for b in (15, 12, 9, 26):
        doc, arena, result = scenario(b)
        verdict = check.verify_strategy_closure(strategy_for(b), arena,
                                                result)
        assert verdict.passed, (b, verdict.render())
    print("\nCRITERION 8 PASS: closure holds for every synthesized "
          "controller (bl_init 15, 12, 9, 26)")


def test_criterion_09_parser_robustness():
    rng = random.Random(31337)
    for _ in range(1000):
        doc = random_document(rng)
        text = print_spec(doc)
        doc2 = parse_spec(text)
        assert doc2.vars == doc.vars
        assert print_spec(doc2) == text
    golden = wd.emit_text(wd.WorkDeliveryParams())
    raw = golden.encode()
    crashes = 0
    for i in range(10_000):
        if i % 2:
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(160)))
        else:
            blob = bytearray(raw[:rng.randrange(len(raw))])
            for _ in range(rng.randrange(6)):
                if blob:
                    blob[rng.randrange(len(blob))] = rng.randrange(256)
            blob = bytes(blob)
        try:
            parse_spec(blob)
        except SpecError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    print("\nCRITERION 9 PASS: 1000 documents round-trip; 10000 fuzzed "
          "inputs parsed without a crash")
