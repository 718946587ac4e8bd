"""Schedules, stopping rule, and the iteration/Euler drivers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm.driver import (
    ContinuousSchedule,
    DiscreteSchedule,
    StoppingRule,
    run_batch,
    run_euler,
    run_iteration,
)
from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid
from dsm.operators import MODEL_KINDS, OperatorModel, SingularShiftError
from dsm.regsolve import NewtonOptions, solve_regularized


def test_discrete_schedule_values():
    sched = DiscreteSchedule(c0=7.0, delta=0.01, p=0.99, shift=1)
    assert sched.a(0) == pytest.approx(7.0 * math.pow(0.01, 0.99), rel=1e-15)
    assert sched.a(0) == pytest.approx(0.0733, abs=2e-4)
    assert sched.a(3) == 7.0 * 0.01 ** 0.99 / 4.0
    values = [sched.a(n) for n in range(50)]
    assert np.all(np.diff(values) < 0)


def test_discrete_schedule_validation():
    with pytest.raises(ValueError):
        DiscreteSchedule(c0=0.0, delta=0.01, p=0.99, shift=1)
    with pytest.raises(ValueError):
        DiscreteSchedule(c0=1.0, delta=0.0, p=0.99, shift=1)
    with pytest.raises(ValueError):
        DiscreteSchedule(c0=1.0, delta=0.01, p=0.0, shift=1)
    with pytest.raises(ValueError):
        DiscreteSchedule(c0=1.0, delta=0.01, p=1.1, shift=1)
    with pytest.raises(ValueError):
        DiscreteSchedule(c0=1.0, delta=0.01, p=0.9, shift=0)


def test_continuous_schedule_values():
    sched = ContinuousSchedule(d=2.0, c=4.0, b=0.5)
    assert sched.a(0.0) == 1.0
    assert sched.adot_abs(0.0) == 0.125
    assert sched.a(12.0) == 0.5
    t = np.linspace(0.0, 9.0, 10)
    np.testing.assert_allclose(sched.a(t), 2.0 / np.sqrt(4.0 + t), rtol=1e-15)


def test_continuous_schedule_validation():
    for bad in (dict(d=0.0, c=1.0, b=1.0), dict(d=1.0, c=0.0, b=1.0),
                dict(d=1.0, c=1.0, b=0.0), dict(d=1.0, c=1.0, b=1.5)):
        with pytest.raises(ValueError):
            ContinuousSchedule(**bad)


def test_schedule_condition_flags():
    good = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
    assert good.lemma25_ok and good.lemma28_ok
    # (1, 1, 1) is constructible but satisfies neither side condition
    tight = ContinuousSchedule(d=1.0, c=1.0, b=1.0)
    assert not tight.lemma25_ok
    assert not tight.lemma28_ok


def test_stopping_rule():
    rule = StoppingRule()
    assert rule.C == 1.01 and rule.gamma == 0.99
    assert rule.threshold(0.01) == 1.01 * 0.01 ** 0.99
    with pytest.raises(ValueError):
        StoppingRule(C=1.0)
    with pytest.raises(ValueError):
        StoppingRule(gamma=0.0)
    with pytest.raises(ValueError):
        StoppingRule(gamma=1.0)
    with pytest.raises(ValueError):
        rule.threshold(0.0)


@pytest.fixture
def identity_setup():
    grid = QuadratureGrid(30)
    model = OperatorModel("identity", grid)
    f_delta = grid.sample(lambda x: 1.0 + 0.2 * np.sin(2.0 * np.pi * x))
    return grid, model, f_delta


def test_identity_trace_matches_closed_form(identity_setup):
    """On F = I the step solves exactly: u_n = f_delta/(1 + a_{n-1}), so the
    whole residual trace has the closed form ||f|| * a/(1 + a)."""
    grid, model, f_delta = identity_setup
    delta = 0.05
    sched = DiscreteSchedule(c0=2.0, delta=delta, p=0.9, shift=1)
    record = run_iteration(model, f_delta, delta, sched)
    assert record.stopped_by_discrepancy
    f2 = np.linalg.norm(f_delta.values)
    assert record.residuals[0] == pytest.approx(f2, rel=1e-14)
    for n in range(1, record.n_stop + 1):
        a_prev = sched.a(n - 1)
        expected_res = f2 * a_prev / (1.0 + a_prev)
        assert record.residuals[n] == pytest.approx(expected_res, rel=1e-12)
    a_last = sched.a(record.n_stop - 1)
    np.testing.assert_allclose(
        record.final.values, f_delta.values / (1.0 + a_last), rtol=1e-12
    )


def test_record_shapes_and_schedule_trace(identity_setup):
    grid, model, f_delta = identity_setup
    delta = 0.05
    sched = DiscreteSchedule(c0=2.0, delta=delta, p=0.9, shift=3)
    record = run_iteration(model, f_delta, delta, sched)
    assert len(record.residuals) == record.n_stop + 1
    assert len(record.a_values) == record.n_stop + 1
    expected_a = [sched.a(n) for n in range(record.n_stop + 1)]
    np.testing.assert_array_equal(record.a_values, expected_a)
    assert record.wall_time >= 0.0


def test_stop_is_strict_at_stop_and_not_before(identity_setup):
    grid, model, f_delta = identity_setup
    delta = 0.05
    rule = StoppingRule()
    threshold = rule.threshold(delta)
    record = run_iteration(
        model, f_delta, delta, DiscreteSchedule(2.0, delta, 0.9, 1), rule=rule
    )
    assert record.stopped_by_discrepancy
    assert record.residuals[-1] < threshold
    assert np.all(record.residuals[:-1] >= threshold)


def test_immediate_stop_returns_start(identity_setup):
    # threshold above the initial residual: no step is ever taken
    grid, model, f_delta = identity_setup
    delta = 10.0
    record = run_iteration(model, f_delta, delta, DiscreteSchedule(2.0, delta, 0.9, 1))
    assert record.stopped_by_discrepancy
    assert record.n_stop == 0
    assert len(record.residuals) == 1
    np.testing.assert_array_equal(record.final.values, np.zeros(grid.n))


def test_custom_start_point(identity_setup):
    grid, model, f_delta = identity_setup
    delta = 10.0
    u0 = grid.sample(lambda x: x)
    record = run_iteration(
        model, f_delta, delta, DiscreteSchedule(2.0, delta, 0.9, 1), u0=u0
    )
    assert record.n_stop == 0
    np.testing.assert_array_equal(record.final.values, u0.values)


def test_run_cap_reports_unstopped(identity_setup):
    grid, model, f_delta = identity_setup
    delta = 1e-8  # threshold far below what a few steps can reach
    record = run_iteration(
        model, f_delta, delta, DiscreteSchedule(2.0, delta, 0.9, 1), max_iter=3
    )
    assert not record.stopped_by_discrepancy
    assert record.n_stop == 3
    assert len(record.residuals) == 4


def test_euler_zero_steps(identity_setup):
    grid, model, f_delta = identity_setup
    record = run_euler(
        model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), max_steps=0
    )
    assert not record.stopped_by_discrepancy
    assert record.n_stop == 0
    np.testing.assert_array_equal(record.final.values, np.zeros(grid.n))


def test_driver_schedule_type_checks(identity_setup):
    grid, model, f_delta = identity_setup
    with pytest.raises(ValueError):
        run_iteration(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1))
    with pytest.raises(ValueError):
        run_iteration(model, f_delta, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), max_iter=0)
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), h=0.0)
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), max_steps=-1)


def test_grid_mismatch_rejected(identity_setup):
    grid, model, f_delta = identity_setup
    other = QuadratureGrid(31).zero()
    with pytest.raises(ValueError):
        run_iteration(model, other, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1))


def test_start_on_other_grid_rejected(identity_setup):
    grid, model, f_delta = identity_setup
    other = QuadratureGrid(31).zero()
    # the error names the start point's grid, not just a length mismatch
    with pytest.raises(GridMismatchError, match=r"QuadratureGrid\(n=31\)"):
        run_iteration(model, f_delta, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), u0=other)


class _CountingModel(OperatorModel):
    calls = 0

    def apply_values(self, values):
        self.calls += 1
        return super().apply_values(values)


def test_accepted_trial_supplies_next_residual(identity_setup):
    """F is evaluated once at the start and then only by the line search:
    on F = I every full step is accepted, so a run costs n_stop + 1
    evaluations of the raw F kernel (the checked start included)."""
    grid, _, f_delta = identity_setup
    model = _CountingModel("identity", grid)
    delta = 0.05
    record = run_iteration(model, f_delta, delta, DiscreteSchedule(2.0, delta, 0.9, 1))
    assert record.stopped_by_discrepancy and record.n_stop > 1
    assert model.calls == record.n_stop + 1


@pytest.fixture
def arctan_setup():
    grid = QuadratureGrid(60)
    model = OperatorModel("arctan3", grid)
    u_star = grid.sample(lambda x: x * (1.0 - x) + 0.5)
    f = model.apply(u_star)
    pert = 0.02 * np.sin(5.0 * np.pi * grid.nodes)
    f_delta = GridFunction(grid, f.values + pert)
    delta = float(np.linalg.norm(pert))
    return model, f_delta, delta


def test_euler_with_unit_step_matches_iteration(arctan_setup):
    """With h = 1 and a(t) = C0 delta^p/(shift + t) the Euler trace equals
    the discrete iteration's, float for float."""
    model, f_delta, delta = arctan_setup
    c0, p = 3.0, 0.9
    discrete = DiscreteSchedule(c0=c0, delta=delta, p=p, shift=1)
    continuous = ContinuousSchedule(d=c0 * delta ** p, c=1.0, b=1.0)
    rec_i = run_iteration(model, f_delta, delta, discrete)
    rec_e = run_euler(model, f_delta, delta, continuous, h=1.0)
    assert rec_i.stopped_by_discrepancy and rec_e.stopped_by_discrepancy
    assert rec_i.n_stop == rec_e.n_stop
    assert np.max(np.abs(rec_i.residuals - rec_e.residuals)) <= 1e-12
    assert np.max(np.abs(rec_i.final.values - rec_e.final.values)) <= 1e-12
    np.testing.assert_array_equal(rec_i.a_values, rec_e.a_values)


def test_smaller_euler_step_needs_more_steps(arctan_setup):
    model, f_delta, delta = arctan_setup
    continuous = ContinuousSchedule(d=3.0 * delta ** 0.9, c=1.0, b=1.0)
    full = run_euler(model, f_delta, delta, continuous, h=1.0, max_steps=2000)
    half = run_euler(model, f_delta, delta, continuous, h=0.5, max_steps=2000)
    assert full.stopped_by_discrepancy and half.stopped_by_discrepancy
    assert half.n_stop >= full.n_stop


def test_runs_are_deterministic(arctan_setup):
    model, f_delta, delta = arctan_setup
    sched = DiscreteSchedule(c0=3.0, delta=delta, p=0.9, shift=1)
    rec1 = run_iteration(model, f_delta, delta, sched)
    rec2 = run_iteration(model, f_delta, delta, sched)
    assert rec1.n_stop == rec2.n_stop
    np.testing.assert_array_equal(rec1.residuals, rec2.residuals)
    np.testing.assert_array_equal(rec1.final.values, rec2.final.values)


def test_backtracking_recovers_saturating_runaway():
    """Small a_0 on the saturating model overshoots onto the arctan plateau;
    the damped step must still bring the run to the discrepancy stop."""
    grid = QuadratureGrid(100)
    model = OperatorModel("arctan3", grid)
    x = grid.nodes
    u_star = GridFunction(grid, np.where((x >= 1.0 / 3.0) & (x <= 2.0 / 3.0), 0.0, 1.0))
    f = model.apply(u_star)
    pert = 1e-3 * np.sin(3.0 * np.pi * x)
    f_delta = GridFunction(grid, f.values + pert)
    delta = float(np.linalg.norm(pert))
    sched = DiscreteSchedule(c0=7.0, delta=delta, p=0.99, shift=1)
    record = run_iteration(model, f_delta, delta, sched, max_iter=200)
    assert record.stopped_by_discrepancy
    assert np.max(np.abs(record.final.values)) < 5.0


def _count_wraps(monkeypatch, fn):
    calls = []
    init = GridFunction.__init__

    def counting_init(self, grid, values):
        calls.append(1)
        init(self, grid, values)

    monkeypatch.setattr(GridFunction, "__init__", counting_init)
    result = fn()
    monkeypatch.setattr(GridFunction, "__init__", init)
    return len(calls), result


# each call runs to its cap: the stop threshold 1.01 * 1e-12**0.99 is never
# reached, nor is the Newton tolerance
_CAPPED_RUNS = {
    "run_iteration": lambda model, f_delta, delta, cap: run_iteration(
        model, f_delta, 1e-12, DiscreteSchedule(3.0, delta, 0.9, 1), max_iter=cap,
    ).n_stop,
    "run_euler": lambda model, f_delta, delta, cap: run_euler(
        model, f_delta, 1e-12, ContinuousSchedule(d=3.0 * delta ** 0.9, c=1.0, b=1.0),
        h=0.5, max_steps=cap,
    ).n_stop,
    "solve_regularized": lambda model, f_delta, delta, cap: solve_regularized(
        model, f_delta, 1e-3, NewtonOptions(tol=1e-300, max_iter=cap),
    ).iterations,
}


@pytest.mark.parametrize("name", sorted(_CAPPED_RUNS))
def test_newton_loops_wrap_only_at_the_boundary(monkeypatch, arctan_setup, name):
    """The Newton loops run on raw arrays: a call builds the same few
    GridFunction objects whether it takes two steps or ten."""
    model, f_delta, delta = arctan_setup
    short = _count_wraps(monkeypatch, lambda: _CAPPED_RUNS[name](model, f_delta, delta, 2))
    long = _count_wraps(monkeypatch, lambda: _CAPPED_RUNS[name](model, f_delta, delta, 10))
    assert (short[1], long[1]) == (2, 10)
    assert short[0] == long[0] <= 3


def test_large_grid_run_builds_no_dense_kernel():
    # n = 1e5: a dense kernel would take 80 GB, the O(n) Newton step none
    grid = QuadratureGrid(100_000)
    model = OperatorModel("arctan3", grid)
    f = model.apply(grid.sample(lambda x: 1.0 - x))
    noise = 1e-4 * np.sin(40.0 * grid.nodes)
    f_delta = GridFunction(grid, f.values + noise)
    delta = float(np.linalg.norm(noise))
    sched = DiscreteSchedule(c0=7.0, delta=delta, p=0.99, shift=1)
    record = run_iteration(model, f_delta, delta, sched, max_iter=3)
    assert record.n_stop == 3 and not record.stopped_by_discrepancy
    assert np.all(np.diff(record.residuals) < 0)
    assert "kernel" not in model.__dict__


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=200),
    mode=st.sampled_from(["iterate", "euler-1", "euler-0.5"]),
    levels=st.lists(st.floats(1e-4, 0.2), min_size=1, max_size=6),
    c0=st.floats(0.05, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_batch_rows_match_runs_alone(kind, n, mode, levels, c0):
    """Each row of a batch, with its own noise level, schedule and stop,
    gets bit for bit the record it gets from run_iteration / run_euler
    alone, wherever the other rows stop."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    f = model.apply(grid.sample(lambda x: 1.0 - x + 0.5 * np.sin(4.0 * x)))
    f_deltas, deltas, schedules = [], [], []
    for k, level in enumerate(levels):
        noise = level * np.cos((3.0 + k) * np.pi * grid.nodes)
        f_deltas.append(GridFunction(grid, f.values + noise))
        deltas.append(float(np.linalg.norm(noise)))
        if mode == "iterate":
            schedules.append(DiscreteSchedule(c0, deltas[-1], 0.9, 1))
        else:
            schedules.append(ContinuousSchedule(d=c0 * deltas[-1] ** 0.9, c=1.0, b=1.0))
    h = 1.0 if mode in ("iterate", "euler-1") else 0.5
    batch = run_batch(model, f_deltas, deltas, schedules, h=h, max_steps=60)
    assert len(batch) == len(levels)
    for record, f_delta, delta, schedule in zip(batch, f_deltas, deltas, schedules):
        if mode == "iterate":
            alone = run_iteration(model, f_delta, delta, schedule, max_iter=60)
        else:
            alone = run_euler(model, f_delta, delta, schedule, h=h, max_steps=60)
        assert record.n_stop == alone.n_stop
        assert record.stopped_by_discrepancy == alone.stopped_by_discrepancy
        np.testing.assert_array_equal(record.residuals, alone.residuals)
        np.testing.assert_array_equal(record.a_values, alone.a_values)
        np.testing.assert_array_equal(record.final.values, alone.final.values)


class _SingularModel(OperatorModel):
    """Raises for the second row of every stack it is asked to solve."""

    def solve_shifted_values(self, values, a, rhs):
        if len(values) > 1:
            raise SingularShiftError(5, row=1)
        return super().solve_shifted_values(values, a, rhs)


def test_batch_names_the_singular_row(identity_setup):
    # row 0 stops before any step, so the running stack holds rows 1..3 and
    # its row 1 is batch row 2
    grid, _, f_delta = identity_setup
    model = _SingularModel("identity", grid)
    deltas = [10.0, 0.05, 0.05, 0.05]
    schedules = [DiscreteSchedule(2.0, delta, 0.9, 1) for delta in deltas]
    with pytest.raises(SingularShiftError) as err:
        run_batch(model, [f_delta] * 4, deltas, schedules)
    assert (err.value.row, err.value.pivot_index) == (2, 5)


def test_batch_validation(identity_setup):
    grid, model, f_delta = identity_setup
    discrete = DiscreteSchedule(2.0, 0.05, 0.9, 1)
    with pytest.raises(ValueError):
        run_batch(model, [], [], [])
    with pytest.raises(ValueError):
        run_batch(model, [f_delta, f_delta], [0.05], [discrete, discrete])
    with pytest.raises(ValueError):
        run_batch(model, [f_delta], [0.05], [discrete], h=0.5)
    with pytest.raises(ValueError):
        run_batch(model, [f_delta], [0.05], [lambda n: 1.0])
