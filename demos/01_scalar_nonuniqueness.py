"""Scalar square-root reaction: minimal/maximal solutions without uniqueness.

The ODE  u' + a u = sign(u) sqrt(|u|)  has a continuum of solutions through
u(0) = 0: the reaction term is strictly increasing but not Lipschitz at the
origin.  The monotone iteration still produces the extremal ones.  This demo
computes them between the sub/super-solutions -M and +M, compares against the
closed-form branches, and shows the extremal equilibria +-1/a^2.
"""

import numpy as np

import mevolve as mv

a, M = 1.0, 2.0
scen = mv.build_scalar_nonunique(a, M)
print(f"scenario: {scen.name},  interval [{-M}, {M}],  equilibria predicted:",
      scen.predicted["equilibria"])

prob = scen.problem(horizon=10.0, dt=1e-3)
rpt = mv.iterate(prob, mv.GridFunction(np.array([0.0])), tol=1e-10)
print(f"\nmarch from u0 = 0: at most {rpt.n_iters} inner iterations per step, "
      f"converged={rpt.converged}")
print(f"unique solution? {rpt.unique_flag}  (the gap detects non-uniqueness)")

t = rpt.u_max.t_grid
exact = scen.oracles["u_max"](t)
print("\n   t     u_max (engine)   u_max (closed form)   u_min (engine)")
for k in range(0, t.size, 2000):
    print(f"  {t[k]:5.2f}   {rpt.u_max.states[k, 0]:+.6f}        "
          f"{exact[k]:+.6f}              {rpt.u_min.states[k, 0]:+.6f}")
print(f"max deviation from the closed-form branch: "
      f"{np.max(np.abs(rpt.u_max.states[:, 0] - exact)):.2e}")

U_min, U_max, _ = mv.extremal_trajectories(prob, tol=1e-10)
print(f"\nenvelopes from the interval bounds:  U_max(0) = {U_max.states[0,0]:.3f},"
      f"  U_max(10) = {U_max.states[-1,0]:.6f}  (decreasing toward 1/a^2)")

eq = mv.asymptotic_equilibria(scen.problem(horizon=8.0, dt=0.01),
                              tol=1e-10, tol_eq=1e-7, tol_res=1e-8)
print(f"asymptotic extremal equilibria: u_* = {eq.u_star.values[0]:+.9f}, "
      f"u^* = {eq.u_upper_star.values[0]:+.9f}")
print(f"equilibrium residuals: {eq.residuals[0]:.1e}, {eq.residuals[1]:.1e}")
print(f"Newton probes found {len(eq.newton_equilibria)} equilibria in the "
      f"interval; all sandwiched (worst violation {eq.extremal_violation:.1e})")
