"""Shared fixtures: the two desk-scale regression runs, instrumented
with per-step snapshots for the coverage/nesting property checks."""

import dataclasses

import pytest

from boxchain.maps import fixed_points, sink_orbits
from boxchain.pipeline import RunConfig, parse_schedule, run_pipeline
from support_trees import live_ids


@dataclasses.dataclass
class StepSnapshot:
    record: object
    gamma_addresses: set  # (depth, idx) of the recurrent-model leaves
    tree_is_gamma: bool  # the live leaves are exactly the gamma boxes
    fixed_points_covered: bool
    exact_sinks_covered: bool
    separating: bool


class InstrumentedRun:
    def __init__(self, config):
        self.snapshots = []
        model = config.build_model()
        self.known_points = [fp.location for fp in fixed_points(model)]
        self.exact_sink_points = [
            pt
            for orb in sink_orbits(model)
            if orb.method == "exact"
            for pt in orb.points
        ]

        def on_step(step, tree, gamma, classification):
            gamma_ids = set(int(v) for v in gamma.vertex_ids)

            def covered(points):
                for pt in points:
                    vals = tree.point_axis_values(pt)
                    leaves = tree.leaves_containing_point(vals)
                    if not any(l in gamma_ids for l in leaves):
                        return False
                return True

            self.snapshots.append(
                StepSnapshot(
                    record=step,
                    gamma_addresses=tree.addresses(),
                    tree_is_gamma=live_ids(tree) == gamma.vertex_ids.tolist(),
                    fixed_points_covered=covered(self.known_points),
                    exact_sinks_covered=covered(self.exact_sink_points),
                    separating=classification.separating,
                )
            )

        self.result = run_pipeline(config, on_step=on_step)


@pytest.fixture(scope="session")
def altper2_run():
    """Criterion-4 fixture: the alternate-basilica separation run."""
    config = RunConfig.from_preset(
        "altper2", schedule=parse_schedule("uniform*6,sink_basin*2")
    )
    return InstrumentedRun(config)


@pytest.fixture(scope="session")
def per31_run():
    """Criterion-5 fixture: the 3-1-map at depths <= 7."""
    config = RunConfig.from_preset(
        "per31", schedule=parse_schedule("uniform*6,sink_basin")
    )
    return InstrumentedRun(config)


@pytest.fixture(scope="session")
def circle_run():
    """1-D z^2 reference run: chain recurrent set = unit circle + origin."""
    config = RunConfig(
        kind="quad_poly", c="0", r_prime=2.0, schedule=parse_schedule("uniform*6")
    )
    return InstrumentedRun(config)


@pytest.fixture(scope="session")
def realhorse_run():
    """Real-mode horseshoe: exercises the R^2 axes handling."""
    config = RunConfig.from_preset("realhorse", schedule=parse_schedule("uniform*7"))
    return InstrumentedRun(config)


@pytest.fixture(scope="session")
def cubic_run():
    """Cubic polynomial with an attracting 4-cycle."""
    config = RunConfig.from_preset("cubicdouble", schedule=parse_schedule("uniform*8"))
    return InstrumentedRun(config)
