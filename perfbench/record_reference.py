"""Record the correctness references of the benchmark in reference.json.

Run once, at the commit whose results are taken as the reference:

    python3 perfbench/record_reference.py

Winning regions are unique, so every correct change keeps their digests;
the gate fails on a mismatch.  Controller digests depend on tie-breaking
in extraction, so a mismatch is only reported.  Later changes must not
re-record this file to make a failing gate pass.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as w  # noqa: E402
from workloads import ar, gr1, sl, wd  # noqa: E402


def solve_all(params, assumptions=(), bl_inits=()):
    """Region digest and per-bl_init controller digests of one game."""
    doc = wd.emit_spec(wd.WorkDeliveryParams(**params))
    arena = ar.build_arena(doc)
    env_live = [sl.parse_expr(text) for text in assumptions]
    result = gr1.solve(arena, env_live, doc.sys_liveness)
    controllers = {}
    for b in bl_inits:
        doc_b = wd.emit_spec(wd.WorkDeliveryParams(**dict(params, bl_init=b)))
        arena_b = ar.with_inits(arena, doc_b)
        result_b = dataclasses.replace(
            result, realizable=gr1.is_realizable(result, arena_b))
        controllers[b] = w.controller_digest(
            gr1.extract_strategy(result_b, arena_b))
    return w.region_digest(result.winning), controllers


def main():
    band = range(9, 27)
    region, controller = {}, {}
    for key, params, expect in w.LADDER:
        bl_inits = band if key == "n3" else [15] if expect == 0 else []
        region[f"ladder.{key}"], ctrl = solve_all(params, (), bl_inits)
        for b, digest in ctrl.items():
            suffix = f".b{b}" if key == "n3" else ""
            controller[f"ladder.{key}{suffix}"] = digest
    for key, exprs in w.ASSUMPTIONS:
        region[f"assume.{key}"], ctrl = solve_all({}, exprs, band)
        for b, digest in ctrl.items():
            controller[f"assume.{key}.b{b}"] = digest
    _, ctrl = solve_all({}, (), w.VERIFY_BL_INIT)
    for b, digest in ctrl.items():
        controller[f"verify.bl{b}"] = digest
    reduced = dict(w.REDUCED, bl_init=5)
    region["reduced.synth"], ctrl = solve_all(reduced, (), [5])
    controller["reduced.synth"] = controller["reduced.bl5"] = ctrl[5]
    for key, exprs in w.REDUCED_ASSUMPTIONS:
        region[f"reduced.{key}"], ctrl = solve_all(reduced, exprs, [5])
        controller[f"reduced.{key}.b5"] = ctrl[5]
    with open(os.path.join(HERE, "reference.json"), "w") as fp:
        json.dump({"region": region, "controller": controller}, fp,
                  indent=1, sort_keys=True)
        fp.write("\n")


if __name__ == "__main__":
    main()
