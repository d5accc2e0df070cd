"""
Closed-loop simulation and verification
=======================================

Driving a synthesized controller against adversaries for a 30-minute
(180 step) shift: random and greedy environments, a forced dropoff
failure, a human taking a break, and the post-hoc safety/liveness checks.
"""

import io

from gr1kit import arena, check, gr1, sim
from gr1kit import workdelivery as wd

params = wd.WorkDeliveryParams(bl_init=12)
doc = wd.emit_spec(params)
game = arena.build_arena(doc)
result = gr1.solve(game, doc.env_liveness, doc.sys_liveness)
controller = gr1.extract_strategy(result, game)

# A seeded random environment, reproducible end to end, in steps of
# td = 10 seconds: 180 steps are the 30-minute shift.
trace = sim.run(controller, sim.make_adversary("random", seed=42), 180,
                td=10.0)
bls = [r.state["bl"] for r in trace.rows]
print(f"random shift: backlog stayed in {min(bls)}..{max(bls)}")
print("safety over all 180 steps:",
      check.check_safety(trace, doc).passed)

# The greedy adversaries are deterministic, so liveness is decidable
# exactly: the closed loop is a lasso whose cycle must deliver.
worst_window = 0
for kind in ("min-bl", "max-bl"):
    verdict = check.lasso_check(controller, sim.make_adversary(kind), doc)
    print(f"lasso vs {kind}: {verdict.passed}, "
          f"worst delivery gap {verdict.max_goal_gap} steps")
    worst_window = max(worst_window, verdict.max_goal_gap)

# That gap is a sound window for the finite-trace recurrence check.
goal = doc.sys_liveness[0]
verdict = check.check_recurrence(trace, goal, worst_window)
print(f"random shift delivers within every {worst_window}-step window:",
      verdict.passed)

# Scripted events: fail the first dropoff attempt, then watch the retry.
probe = sim.run(controller, sim.make_adversary("min-bl"), 60)
attempt = next(r.index for r in probe.rows if r.state["tries"] == 1)
events = sim.parse_events(f"step={attempt} set s=0")
trace = sim.run(controller, sim.make_adversary("min-bl"), 60, events=events)
rows = trace.rows
print(f"forced miss at step {attempt}: tries go "
      f"{rows[attempt].state['tries']} -> {rows[attempt + 1].state['tries']}, "
      f"hand empty afterwards: {not rows[attempt + 2].state['hf']}")

# A human break freezes the world; the trace keeps ticking.
events = sim.parse_events("step=30 human_away=1 duration=18")
trace = sim.run(controller, sim.make_adversary("random", seed=7), 120,
                events=events)
away = [r.index for r in trace.rows if r.human_away]
print(f"break covers steps {away[0]}..{away[-1]}; "
      f"safety still holds: {check.check_safety(trace, doc).passed}")

# Traces render to CSV (the same format the command line writes): one
# column per variable.  The human's mode is no variable; the scenario
# derives it from the robot's cell and the backlog.
buf = io.StringIO()
sim.write_csv(trace, buf)
head, *lines = buf.getvalue().splitlines()[:5]
rs, bl = (trace.vals[:len(lines), trace.names.index(k)] for k in ("rs", "bl"))
print("\nfirst trace rows, human mode alongside:")
print(f"{head}  mode")
for line, mode in zip(lines, wd.human_mode(rs, bl, params.n)):
    print(f"{line}  {mode}")
