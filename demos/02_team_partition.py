"""Cut a fused grouping matrix into teams with recursive Fiedler bisection.

A five-robot matrix with one tight pair and one tight triple, weakly tied
together so the graph stays connected. The Fiedler vector of I - Z separates
the pair from the triple on the first cut; asking for more regions keeps
splitting the largest group.
"""

import numpy as np

from hetcover.partition import fiedler_vector, minor_laplacian, partition

np.set_printoptions(precision=3, suppress=True)

c = 0.02
Z = np.full((5, 5), c)
Z[:2, :2] = (1.0 - 3.0 * c) / 2.0
Z[2:, 2:] = (1.0 - 2.0 * c) / 3.0
print("grouping matrix Z (rows sum to 1):")
print(Z)

L = minor_laplacian(Z, list(range(5)))
v = fiedler_vector(L)
print()
print("fiedler vector:", v)
print("sign split: %s vs %s"
      % (sorted(i for i in range(5) if v[i] >= 0),
         sorted(i for i in range(5) if v[i] < 0)))

# one cut sequence gives the teams at every r
levels = partition(Z, 2, 3, 5)
for assignment in levels:
    print()
    print("r = %d teams:" % assignment.r)
    for t, members in enumerate(assignment.teams):
        print("  team %d: %s" % (t, sorted(members)))

print()
print("team_of vector at r=2:", levels[0].team_of)
