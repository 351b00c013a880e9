"""Single seeded random tensors for the tests: entry 0 of the stacked
builders ``random_curvatures`` and ``random_kahler_curvatures`` for one
seed, as a ``CurvatureTensor`` that is not checked again (the builders check
their stacks)."""

from secondkind.curvature import random_curvatures, random_kahler_curvatures, unchecked_tensor


def random_tensor(n, seed):
    return unchecked_tensor(random_curvatures(n, [seed])[0])


def random_kahler_tensor(m, seed):
    return unchecked_tensor(random_kahler_curvatures(m, [seed])[0])
