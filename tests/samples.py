"""Seeded random curvature tensors for the tests, composed of the library's
draws, images and identity check as the sampled harnesses compose them.

``random_curvatures`` and ``random_kahler_curvatures`` build one checked,
read-only stack per call, entry ``i`` drawn from the stream of ``seeds[i]``
alone, whatever its position in the stack. ``random_tensor`` and
``random_kahler_tensor`` are entry 0 of those stacks for one seed, as a
``CurvatureTensor`` that is not checked again."""

from secondkind import curvature


def _checked_stack(t):
    # read through the module, so that a test may patch the check
    curvature.check_identities(t)
    t.flags.writeable = False
    return t


def random_curvatures(n, seeds):
    """Checked read-only stack ``(len(seeds), n, n, n, n)`` of random
    algebraic curvature tensors, ``real_image`` of ``standard_normal_draws``."""
    draws = curvature.standard_normal_draws(seeds, curvature.real_draw_shape(n))
    return _checked_stack(curvature.real_image(draws, n))


def random_kahler_curvatures(m, seeds):
    """Checked read-only stack ``(len(seeds), 2m, 2m, 2m, 2m)`` of random
    curvature tensors invariant under the standard J, ``kahler_image`` of
    ``standard_normal_draws``."""
    draws = curvature.standard_normal_draws(seeds, curvature.kahler_draw_shape(m))
    return _checked_stack(curvature.kahler_image(draws))


def random_tensor(n, seed):
    return curvature.unchecked_tensor(random_curvatures(n, [seed])[0])


def random_kahler_tensor(m, seed):
    return curvature.unchecked_tensor(random_kahler_curvatures(m, [seed])[0])
