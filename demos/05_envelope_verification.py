"""Verify the error bound and the trajectory identities on a random
stable instance.

For a stable formation the edge errors obey an exponential-plus-input
bound: ||z_ij(t)|| <= C exp(-alpha t) ||z(0)|| + beta * sum of leader
input sups.  The constants (C, alpha, beta) are certified from the closed
loop by a Lyapunov solve in error coordinates, and the inequality is
checked on the whole grid, with the leader-input term computed exactly
from the signal descriptions.  Two more identities are checked on
the same trajectories: the finite-difference derivative of each error
against its closed-form linear dynamics, and, where a follower has two
parents, the chain identity linking its two errors.
"""

import numpy as np

import formstab as fs
from formstab.instances import consistent_triangle, random_feasible_formation

rng = np.random.default_rng(3)

print("random stable instance under sinusoidal leader inputs")
spec = random_feasible_formation(11)
decomp = fs.decompose(spec)
report = fs.check(spec, decomp)
assert report.stable
ctrl = fs.synthesize(spec, decomp, report)
x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
signals = {
    s: fs.SinusoidSignal(rng.uniform(0.3, 1.0, spec.m), omega=1.4, phase=0.5)
    for s in sorted(decomp.leaders)
}
trace = fs.simulate(spec, decomp, ctrl, x0, signals=signals, T=10.0)
fit = fs.fit_envelope(trace, decomp)
print(f"  nodes: {spec.l}, leaders: {sorted(decomp.leaders)}")
print(f"  envelope passed = {fit.passed}, ||z(0)|| = {fit.z0_norm:.4f}")
for e in sorted(fit.C):
    print(f"  edge {e}: C = {fit.C[e]:8.3f}  alpha = {fit.alpha[e]:6.3f}  "
          f"beta = {fit.beta[e]:6.3f}")

defect = fs.error_dynamics_check(trace, spec, decomp, ctrl)
print(f"  error-dynamics finite-difference defect: {defect:.2e}")

print("\ntwo-parent chain identity on the consistent triangle")
tri = consistent_triangle()
tdec = fs.decompose(tri)
tctrl = fs.synthesize(tri, tdec, fs.check(tri, tdec))
tx0 = {i: rng.standard_normal(2) for i in tri.nodes}
ttrace = fs.simulate(tri, tdec, tctrl, tx0, T=6.0)
resid = fs.chain_residual(ttrace, tdec, (3, 1), 2)
print(f"  max residual over the grid: {float(resid.max()):.2e}")
