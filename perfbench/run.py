"""gr1kit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One run of one workload, as the harness calls it:

    python3 perfbench/run.py --workload synth-ladder --seed 0 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) with its unit, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` it runs every workload, each in a fresh process, and prints
one table.  Run it from anywhere: it imports gr1kit from ``src/`` of the
checkout it sits in, and writes only below ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3       # set-ups per untraced run; setup_s takes the median
REDUCED_PASSES = 10     # reduced-scenario passes per untraced run

# end-to-end metric -> stage whose seconds per round it reports
STAGE_METRICS = {"synth_s": "synth", "assume_solve_s": "assume",
                 "simulate_s": "simulate", "check_s": "check"}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def import_program():
    """Import gr1kit from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "gr1kit", "__init__.py")):
        sys.exit(f"error: no gr1kit sources under {SRC}")
    sys.path.insert(0, SRC)
    import gr1kit
    # the tracer reaches the layers as attributes of the package
    from gr1kit import (arena, check, cli, gr1, sim,  # noqa: F401
                        speclang, workdelivery)
    if not os.path.abspath(gr1kit.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: gr1kit imported from {gr1kit.__file__}, not {SRC}")
    return gr1kit


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": list(os.getloadavg()), "commit": git_commit(),
            "machine": platform.machine(), "started": time.time()}


def median(values):
    return statistics.median(values) if values else 0.0


def untraced(workload, reduced, gate, inputs, reduced_inputs, seconds):
    """Rounds of the workload's own jobs until the next one would end after
    `seconds`, with the reduced passes spread between them: one first, one
    after each round, the rest at the end.  Each round and pass gets the
    machine speed measured around it.  Returns (main rounds, passes)."""
    from workloads import Calibrator, Round
    start = time.perf_counter()
    calibrator = Calibrator()
    red, main = [], []

    def run(target, rounds, inputs):
        rnd = Round(calibrator=calibrator)
        target.run(rnd, gate, inputs)
        rnd.close()
        rounds.append(rnd)

    run(reduced, red, reduced_inputs)
    while True:
        t0 = time.perf_counter()
        run(workload, main, inputs)
        now = time.perf_counter()
        if len(red) < REDUCED_PASSES:
            run(reduced, red, reduced_inputs)
        if now + (now - t0) - start > seconds:
            break
    while len(red) < REDUCED_PASSES:
        run(reduced, red, reduced_inputs)
    calibrator.sample()
    for rnd in red + main:
        rnd.speed = calibrator.speed(*rnd.span)
    return main, red, calibrator.samples


def end_to_end(workload, main, red, setup_s):
    """End-to-end values at calibration speed, and the raw values.

    The machine's speed drifts by tens of percent over seconds and for
    minutes at a time.  Each round's times are therefore divided by the
    speed measured around it, and rates multiplied by it; the metric is
    the median over rounds."""
    raw, scaled = {}, {}
    for metric, stage in STAGE_METRICS.items():
        rounds = main if stage in workload.own else red
        raw[metric] = median([r.stage_s[stage] for r in rounds])
        scaled[metric] = median([r.stage_s[stage] / r.speed for r in rounds])
    rounds = main if "corpus" in workload.own else red
    raw["corpus_games_per_s"] = median(
        [r.games / r.stage_s["corpus"] for r in rounds])
    scaled["corpus_games_per_s"] = median(
        [r.games / r.stage_s["corpus"] * r.speed for r in rounds])
    speed = median([r.speed for r in main + red])
    raw["setup_s"], scaled["setup_s"] = setup_s, setup_s / speed
    raw["peak_rss_mb"] = scaled["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    raw["speed"] = speed
    return raw, scaled


def timeline(main, red, samples):
    """Calibration samples and round spans, seconds since the first
    sample, so that other estimators can be tried on recorded runs."""
    t0 = samples[0][0]

    def rounds(rs):
        return [[r.span[0] - t0, r.span[1] - t0, dict(r.stage_s), r.games]
                for r in rs]

    return {"samples": [[at - t0, took] for at, took in samples],
            "main": rounds(main), "reduced": rounds(red)}


def traced(gr1kit, workload, gate, inputs, seconds, spans_path):
    """Alternate untraced and traced rounds.  The per-layer metrics are
    those of the fastest traced round, whose self times add up to its
    wall time; the overhead compares it with the fastest untraced round."""
    from tracer import Tracer, layer_metrics, write_spans
    from workloads import Round
    tracer = Tracer(gr1kit)
    start = time.perf_counter()
    plain, layered, bounds = [], [], []
    while True:
        t0 = time.perf_counter()
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                rnd = Round(tracer)
                lo = tracer.mark()
                tracer.install()
                try:
                    workload.run(rnd, gate, inputs)
                finally:
                    tracer.uninstall()
                bounds.append((lo, len(tracer.spans)))
                values = layer_metrics(tracer.spans, lo, tracer.counts,
                                       rnd.wall)
                values["trace.wall_s"] = rnd.wall
                for note, count in rnd.notes.items():
                    values[f"check.{note}"] = count
                layered.append(values)
            else:
                rnd = Round()
                workload.run(rnd, gate, inputs)
                plain.append(rnd.wall)
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    write_spans(spans_path, tracer.spans, bounds, _T0)
    out = min(layered, key=lambda v: v["trace.wall_s"])
    out["trace.untraced_wall_s"] = min(plain)
    out["trace.overhead_s"] = (out["trace.wall_s"]
                               - out["trace.untraced_wall_s"])
    return out, len(layered)


def self_time_table(values):
    from tracer import LAYERS
    rows = [(layer, values.get(f"self.{layer}_s", 0.0))
            for layer in LAYERS if layer != "cli"]
    rows.append(("cli", values.get("cli.self_s", 0.0)))
    rows.append(("bench glue", values.get("self.bench_s", 0.0)))
    wall = values.get("trace.wall_s", 0.0) or 1.0
    lines = ["  self time per layer, fastest traced round:"]
    for layer, sec in rows:
        lines.append(f"    {layer:<13} {sec:10.4f} s  "
                     f"{100 * sec / wall:5.1f}%")
    layers = sum(sec for layer, sec in rows if layer != "bench glue")
    untraced_wall = values.get("trace.untraced_wall_s", 0.0)
    overhead = values.get("trace.overhead_s", 0.0)
    lines.append(f"    traced {wall:.4f} s, untraced {untraced_wall:.4f} s, "
                 f"overhead {overhead:.4f} s; layers sum {layers:.4f} s "
                 f"({layers - untraced_wall:+.4f} s vs untraced)")
    return lines


def single(args):
    e2e, per_layer = load_benchmark()
    gr1kit = import_program()
    import_s = time.perf_counter() - _T0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reduced = workloads.REDUCED_PASS
    with open(os.path.join(HERE, "reference.json")) as fp:
        reference = json.load(fp)
    record = machine_record()
    tag = f"{args.workload}.s{args.seed}.t{args.trace}.{os.getpid()}"
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=tag + ".", dir=os.path.join(OUT, "work"))
    info = {"import_s": import_s}
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            if not args.trace:
                reduced_inputs = reduced.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        info["setup_runs_s"] = setups
        gate = workloads.Gate(reference)
        if args.trace:
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            spans_path = os.path.join(OUT, "spans", tag + ".csv")
            values, n = traced(gr1kit, workload, gate, inputs, args.seconds,
                               spans_path)
            info.update(traced_rounds=n, spans=spans_path)
            metrics = {name: {"value": values.get(name, 0),
                              "unit": m["unit"]}
                       for name, m in per_layer.items()}
        else:
            main, red, samples = untraced(workload, reduced, gate, inputs,
                                          reduced_inputs, args.seconds)
            raw, scaled = end_to_end(workload, main, red,
                                     import_s + median(setups))
            metrics = {name: {"value": scaled[name], "unit": m["unit"]}
                       for name, m in e2e.items()}
            info.update(raw=raw, rounds=len(main), reduced_passes=len(red),
                        stages={s: median([r.stage_s[s] for r in main])
                                for s in workloads.STAGES},
                        reduced_stages={s: median([r.stage_s[s] for r in red])
                                        for s in workloads.STAGES},
                        games_per_round=main[-1].games,
                        timeline=timeline(main, red, samples),
                        notes={k: max(r.notes[k] for r in main)
                               for k in main[-1].notes})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    info["error_rate"] = gate.failed / max(gate.attempted, 1)
    info["failures"] = gate.failures
    info["digests_changed"] = sorted(gate.changed)
    result = {"correct": gate.failed == 0 and gate.attempted > 0,
              "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}

    print(f"gr1kit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':<32} {info['error_rate']:14.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations failed)")
    if args.trace:
        print("\n".join(self_time_table(values)))
    for line in gate.failures:
        print(f"  FAILED {line}")
    if gate.changed:
        print(f"  controller digests changed (information only): "
              f"{', '.join(sorted(gate.changed))}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fp:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   **result, "info": info, "record": record}, fp, indent=1)
    print(json.dumps(result))
    return 0


def every_workload(args):
    """Each workload in a fresh process; one table of their last lines."""
    import_program()
    import workloads
    names = tuple(workloads.WORKLOADS)
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = list(results[names[0]]["metrics"])
    print("\n" + f"{'metric':<28}" + "".join(f"{n:>15}" for n in names))
    for metric in metrics + ["error_rate"]:
        cells = []
        for n in names:
            r = results[n]
            value = (r["failed"] / r["attempted"] if metric == "error_rate"
                     else r["metrics"][metric]["value"])
            cells.append(f"{value:15.5g}")
        print(f"{metric:<28}" + "".join(cells))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return single(args)
    return every_workload(args)


if __name__ == "__main__":
    sys.exit(main())
