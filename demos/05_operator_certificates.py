"""Tour of the generator layer: stencils, positivity, eigenpairs, certificates.

Everything the engine relies on is checkable: nonpositive off-diagonals make
the semigroup entrywise positive, nonnegative row sums make it sub-markovian,
and irreducibility gives a simple least eigenvalue with a positive
eigenvector.
"""

import numpy as np
import scipy.linalg

import mevolve as mv
from mevolve.generators import mesh_nodes, shifted

n = 30
for bc, beta in (("dirichlet", None), ("neumann", None), ("robin", 2.0)):
    gen = mv.build_laplacian_1d(n, bc, beta)
    pair = mv.principal_eig(gen)
    rows = gen.matrix @ np.ones(n)
    print(f"{bc:9s}: h = {gen.mesh_h:.4f}  lambda_1 = {pair.lambda1:10.6f}  "
          f"min row sum = {np.min(rows):8.3f}  sub-markovian = "
          f"{mv.check_submarkovian(gen)}")

gen = mv.build_laplacian_1d(n, "dirichlet")
h = 1.0 / (n + 1)
print(f"\nclosed form check: lambda_1 = (4/h^2) sin^2(pi h/2) = "
      f"{(4/h**2)*np.sin(np.pi*h/2)**2:.12f}")
print(f"engine value:                                 "
      f"{mv.principal_eig(gen).lambda1:.12f}")

# the resolvent at 0, A^{-1}, solves -u'' = f; for f = 1 the parabola x(1-x)/2
sol = scipy.linalg.solve(gen.matrix, np.ones(n))
x = mesh_nodes(gen)
print(f"\n-u'' = 1 via resolvent: max |u - x(1-x)/2| = "
      f"{np.max(np.abs(sol - x*(1-x)/2)):.2e} (second differences are exact "
      f"on quadratics)")

# eigenvalue monotonicity under potentials
bump = np.zeros(n)
bump[n // 2] = 0.5
lam_base = mv.principal_eig(gen).lambda1
lam_bump = mv.principal_eig(mv.add_potential(gen, bump)).lambda1
print(f"\npotential bump at one node raises lambda_1 strictly: "
      f"{lam_base:.6f} -> {lam_bump:.6f}")

# semigroup positivity survives shifting and stays sub-markovian only with
# nonnegative row sums
stable = shifted(mv.build_laplacian_1d(n, "neumann"), 1.0)
v = np.abs(np.sin(7 * np.pi * mesh_nodes(stable)))
out = mv.semigroup_apply(stable, 2.0, v)
print(f"\nshifted Neumann semigroup at t=2: min entry {np.min(out):.2e} >= 0, "
      f"and e^(-tA)1 = e^(-t): {mv.semigroup_apply(stable, 2.0, np.ones(n))[0]:.6f} "
      f"vs {np.exp(-2.0):.6f}")
