"""Build stabilizing follower controllers and walk the admissible family.

Every admissible control law u_i = S_i x_i + sum_s K_is x_s + k_i
decomposes into a stabilizing own-state gain S_i, the aggregate gain N_i
and offset kt_i that solve the criterion's linear equations, and a split
of N_i - S_i over the parents.  The default split puts everything on the
designated parent, so each follower only listens to one other agent.
"""

import numpy as np

import formstab as fs
from formstab.instances import three_agent_chain

spec = three_agent_chain()
decomp = fs.decompose(spec)
report = fs.check(spec, decomp)
assert report.stable

ctrl = fs.synthesize(spec, decomp, report)
print("default (parent-only) controller:")
for i, fc in sorted(ctrl.followers.items()):
    print(f"  follower {i}: S = {fc.S.tolist()}  k = {fc.k.tolist()}")
    for s, Ks in sorted(fc.K.items()):
        print(f"              K[{s}] = {Ks.tolist()}")

ver = fs.verify_controller(spec, decomp, ctrl)
print(f"\nverification: matrix defect {ver.max_matrix_defect:.2e}, "
      f"offset defect {ver.max_offset_defect:.2e}, passed = {ver.passed}")

# the control law at the ideal configuration x_i = -D_i collapses to the
# derived offsets
ideal = {i: -decomp.cumulative_offset[i] for i in spec.nodes}
for i in decomp.followers():
    u = fs.control_input(ctrl, i, ideal)
    print(f"ideal-configuration input of follower {i}: {u.tolist()} "
          f"(derived offset {ctrl.gains(i).k_tilde.tolist()})")

# sample the admissible family: own-state gains drawn inside the closed-form
# gain margin (a zero gain stays zero), kernel moves, random splits; each
# member is certified, but the samples do not cover the family
family = fs.enumerate_family(spec, decomp, report, 5, rng=0)
print(f"\nsampled {len(family)} family members; own-state gains of follower 2:")
for k, member in enumerate(family):
    print(f"  member {k}: S_2 = {np.round(member.gains(2).S, 4).tolist()}")
