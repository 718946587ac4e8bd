"""Show that the discrete iteration is explicit Euler on the continuous flow.

DiscreteSchedule(c0, delta, p, shift) builds the paper's a_n as the
ContinuousSchedule a(t) = d/(c + t) with d = c0*delta**p and c = shift, and
both drivers take that one schedule: the Euler trace at step h = 1
reproduces the iteration bitwise; shrinking h tracks the underlying ODE more
closely and stops at nearly the same physical time t = n*h with nearly the
same error.
"""

import numpy as np

from dsm import (
    DiscreteSchedule,
    OperatorModel,
    QuadratureGrid,
    calibrate_noise,
    exact_solution,
    rel_error,
    run_euler,
    run_iteration,
    sine_noise,
)

grid = QuadratureGrid(100)
model = OperatorModel("arctan3", grid)
u_star = exact_solution("step", grid)
f = model.apply(u_star)
f_delta, delta = calibrate_noise(f, sine_noise(grid), 0.01)

c0, p, shift = 68.1, 0.99, 1
schedule = DiscreteSchedule(c0, delta, p, shift)
rec = run_iteration(model, f_delta, delta, schedule)
print(f"discrete iteration: stop n={rec.n_stop}, "
      f"rel_error={rel_error(rec.final, u_star):.4f}")

for h in (1.0, 0.5, 0.25, 0.1):
    ode = run_euler(model, f_delta, delta, schedule, h=h, max_steps=2000)
    gap = float(np.max(np.abs(ode.final.values - rec.final.values)))
    print(f"euler h={h:<4}: stop n={ode.n_stop:4d} (t={ode.n_stop * h:6.1f}), "
          f"rel_error={rel_error(ode.final, u_star):.4f}, "
          f"|u - u_discrete|_inf={gap:.3e}")
