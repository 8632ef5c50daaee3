"""``DiscreteCoupling.columns`` draws bitwise what the per-row loop in
``helpers.columns_loop`` draws: the same uniforms land on the same target
atoms, also on a cumulative level and above a row's last level."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import columns_loop
from teamsolve.measures import DiscreteMeasure
from teamsolve.transport import DiscreteCoupling, ot_discrete


class FixedUniform:
    """A stand-in for a numpy Generator whose ``uniform`` returns the given
    values, so that both samplers see chosen uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, size):
        assert size == len(self.u)
        return self.u.copy()


def _row_levels(plan):
    cond = plan / plan.sum(axis=1)[:, None]
    return [np.cumsum(c[c > 0]) for c in cond]


# a row entry: zero, or a positive mass of very different sizes
ENTRY = st.one_of(st.just(0.0), st.sampled_from([0.1, 1e-17, 1.0 / 3.0]),
                  st.floats(1e-6, 1.0))


@st.composite
def _plans(draw):
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    plan = np.array([[draw(ENTRY) for _ in range(n2)] for _ in range(n1)])
    for r in range(n1):
        if not (plan[r] > 0).any():
            plan[r, draw(st.integers(0, n2 - 1))] = draw(st.floats(1e-6, 1))
    return plan


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), data=st.data())
@example(plan=np.full((1, 10), 0.1), data=None)
@example(plan=np.array([[0.0, 0.3, 0.0], [2.0, 0.0, 0.0]]), data=None)
def test_columns_match_the_row_loop(plan, data):
    levels = _row_levels(plan)
    src_idx = np.repeat(np.arange(len(plan)), 8)
    u = []
    for q, r in enumerate(src_idx):
        cum = levels[r]
        j, kind = q % len(cum), q % 8      # the explicit examples' choice
        if data is not None:
            j = data.draw(st.integers(0, len(cum) - 1), label="level")
            kind = data.draw(st.integers(0, 7), label="kind")
        # on a level, just below or above one, above the last level
        u.append([cum[j], np.nextafter(cum[j], 0), np.nextafter(cum[j], 2),
                  np.nextafter(cum[-1], 2), 1.0 - 2 ** -53, 0.0,
                  cum[0] / 2, (cum[j] + cum[-1]) / 2][kind])
    got = DiscreteCoupling(None, None, plan).columns(FixedUniform(u), src_idx)
    ref = columns_loop(plan, FixedUniform(u), src_idx)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_the_examples_cover_the_edge_rows():
    # a single-entry row, and a row whose last level stays below 1
    assert len(_row_levels(np.array([[0.0, 0.3, 0.0]]))[0]) == 1
    assert _row_levels(np.full((1, 10), 0.1))[0][-1] < 1.0


def test_columns_match_on_a_transport_plan():
    rng = np.random.default_rng(31)
    nu1 = DiscreteMeasure(rng.uniform(0, 1, (7, 2)), rng.dirichlet(np.ones(7)))
    nu2 = DiscreteMeasure(rng.uniform(0, 1, (9, 2)), rng.dirichlet(np.ones(9)))
    coupling, _ = ot_discrete(nu1, nu2)
    src_idx = rng.choice(7, size=10000, p=nu1.weights)
    got = coupling.columns(np.random.default_rng(5), src_idx)
    ref = columns_loop(coupling.plan, np.random.default_rng(5), src_idx)
    assert np.array_equal(got, ref)
