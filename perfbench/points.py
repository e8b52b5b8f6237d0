"""Layer points from ROADMAP item 1, timed untraced after the traced pass.

Angle add and scale per operation, `validate_group` at N = 64, 128, 256 and
`verify_action` on a mixed-orbit cyclic action with 24 boundary tori at
N = 48 and 96.  N = 192 is left out: one call takes about 10 s, more than a
run can spend on it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

import gen
import model
from seifert_actions import action, groups, rational


def _best_of(repeats, fn):
    """Median wall time of `repeats` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        fn()
        times.append((perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def _angle_ns(rng):
    angle = rational.RationalAngle
    xs = [angle(Fraction(rng.randrange(0, 60), rng.randrange(1, 61))) for _ in range(2000)]
    ks = [rng.choice([-1, 1, rng.randrange(-30, 31)]) for _ in xs]
    ys = xs[1:] + xs[:1]

    def add():
        for x, y in zip(xs, ys):
            x + y

    def scale():
        for x, k in zip(xs, ks):
            x.scale(k)

    return _best_of(7, add) * 1e6 / len(xs), _best_of(7, scale) * 1e6 / len(xs)


# (metric, table) for validate_group; the groups are non-abelian
TABLES = [
    ("points.validate_group_n64_ms", lambda: model.product_table(model.cyclic_table(8), model.dihedral_table(4)), 5),
    ("points.validate_group_n128_ms", lambda: model.dihedral_table(64), 3),
    ("points.validate_group_n256_ms", lambda: model.product_table(model.cyclic_table(16), model.dihedral_table(8)), 1),
]
MIXED_ORBIT_BLOCKS = [(16, 0), (4, 0), (3, 0), (1, 0)]  # 24 boundary tori


def layer_points(rng):
    add_ns, scale_ns = _angle_ns(rng)
    out = {"rational.angle_add_ns": (add_ns, "ns"), "rational.angle_scale_ns": (scale_ns, "ns")}
    for name, make, repeats in TABLES:
        table = make()
        out[name] = (_best_of(repeats, lambda: groups.validate_group(table)), "ms")
    for order, repeats in ((48, 1), (96, 1)):
        act = gen.build_action(rng, "cyclic", order, MIXED_ORBIT_BLOCKS)
        data = gen.library_action(groups.cyclic_group(order), act)
        out[f"points.verify_action_n{order}_b24_ms"] = (
            _best_of(repeats, lambda: action.verify_action(data)), "ms")
    return out
