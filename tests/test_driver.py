"""Schedules, stopping rule, and the iteration/Euler drivers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsm import regsolve
from dsm.driver import (
    ContinuousSchedule,
    DiscreteSchedule,
    StoppingRule,
    run_batch,
    run_euler,
    run_iteration,
)
from dsm.harness import PRESETS, calibrate_noise, exact_solution, run_cells, sine_noise
from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, norm, norms
from dsm.operators import MODEL_KINDS, OperatorModel, SingularShiftError
from dsm.regsolve import solve_regularized


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
    for bad in (dict(delta=math.inf, shift=1), dict(delta=0.01, shift=1.5),
                dict(delta=0.01, shift=math.inf)):
        with pytest.raises(ValueError):
            DiscreteSchedule(c0=1.0, p=0.9, **bad)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_discrete_schedule_is_the_papers_a_n_as_a_continuous_schedule(preset):
    # a_n = c0 * delta**p / (n + shift), bit for bit, from the one schedule type
    config = PRESETS[preset]
    for delta in (0.37, 0.01, 2.5e-5):
        sched = DiscreteSchedule(config.c0, delta, config.p, config.shift)
        assert type(sched) is ContinuousSchedule
        for n in range(61):
            assert sched.a(n) == config.c0 * delta ** config.p / (n + config.shift)


@pytest.mark.parametrize("c0, delta", [(1e300, 1e10), (1e-300, 1e-300), (1e-300, 1e-10)])
def test_discrete_schedule_rejects_an_overflowing_or_vanishing_d(c0, delta):
    # d = c0 * delta**p is inf, 0 or subnormal (1e-310), which no run can
    # step with: a subnormal shift can read as a singular pivot
    with pytest.raises(ValueError, match="^d, c must be positive and finite"):
        DiscreteSchedule(c0, delta, 1.0, 1)


def test_continuous_schedule_values():
    sched = ContinuousSchedule(d=2.0, c=4.0, b=0.5)
    assert sched.a(0.0) == 1.0
    assert sched.adot_abs(0.0) == 0.125
    assert sched.a(12.0) == 0.5
    t = np.linspace(0.0, 9.0, 10)
    np.testing.assert_allclose(sched.a(t), 2.0 / np.sqrt(4.0 + t), rtol=1e-15)


def test_continuous_schedule_validation():
    for bad in (dict(d=0.0, c=1.0, b=1.0), dict(d=1.0, c=0.0, b=1.0),
                dict(d=1.0, c=1.0, b=0.0), dict(d=1.0, c=1.0, b=1.5),
                dict(d=math.inf, c=1.0, b=1.0), dict(d=1.0, c=math.inf, b=1.0),
                dict(d=5e-324, c=1.0, b=1.0)):
        with pytest.raises(ValueError):
            ContinuousSchedule(**bad)


def test_stopping_rule():
    rule = StoppingRule()
    assert rule.C == 1.01 and rule.gamma == 0.99
    assert rule.threshold(0.01) == 1.01 * 0.01 ** 0.99
    with pytest.raises(ValueError):
        StoppingRule(C=1.0)
    # C = inf gave a threshold that u0 = 0 already meets: a vacuous stop
    with pytest.raises(ValueError, match="finite"):
        StoppingRule(C=math.inf)
    with pytest.raises(ValueError):
        StoppingRule(gamma=0.0)
    with pytest.raises(ValueError):
        StoppingRule(gamma=1.0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rule.threshold(bad)


@pytest.fixture
def identity_setup():
    grid = QuadratureGrid(30)
    model = OperatorModel("identity", grid)
    f_delta = GridFunction(grid, 1.0 + 0.2 * np.sin(2.0 * np.pi * grid.nodes))
    return grid, model, f_delta


def test_identity_trace_matches_closed_form(identity_setup):
    """On F = I the step solves exactly: u_n = f_delta/(1 + a_{n-1}), so the
    whole residual trace has the closed form ||f_delta|| * a/(1 + a) in the
    weighted norm."""
    grid, model, f_delta = identity_setup
    delta = 0.05
    sched = DiscreteSchedule(c0=2.0, delta=delta, p=0.9, shift=1)
    record = run_iteration(model, f_delta, delta, sched)
    assert record.stopped_by_discrepancy
    f2 = norm(f_delta)
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
    assert len(record.step_lengths) == record.n_stop
    expected_a = [sched.a(n) for n in range(record.n_stop + 1)]
    np.testing.assert_array_equal(record.a_values, expected_a)
    assert record.wall_time >= 0.0
    # b = 0.5 at h = 0.5, 166 steps: numpy takes x ** 0.5 with a scalar
    # exponent as sqrt(x), which differs from pow(x, 0.5) in the last bit at
    # about one x in twenty
    schedule = ContinuousSchedule(d=0.5, c=3.0, b=0.5)
    record = run_euler(model, f_delta, delta, schedule, h=0.5)
    assert record.stopped_by_discrepancy and record.n_stop > 100
    t = np.arange(record.n_stop + 1) * 0.5
    np.testing.assert_array_equal(record.a_values, schedule.a(t))


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
    assert len(record.step_lengths) == 0
    np.testing.assert_array_equal(record.final.values, np.zeros(grid.n))


def test_custom_start_point(identity_setup):
    grid, model, f_delta = identity_setup
    delta = 10.0
    u0 = GridFunction(grid, grid.nodes)
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


def test_an_integral_float_cap_runs_as_its_integer(identity_setup):
    # a cap of 3.0 passes the integer check and is the cap 3: the table it
    # sizes fits the same steps, and the record is the same bit for bit
    grid, model, f_delta = identity_setup
    delta = 1e-8
    schedule = DiscreteSchedule(2.0, delta, 0.9, 1)
    want = run_iteration(model, f_delta, delta, schedule, max_iter=3)
    got = run_iteration(model, f_delta, delta, schedule, max_iter=3.0)
    assert (got.n_stop, got.stopped_by_discrepancy) == (want.n_stop, want.stopped_by_discrepancy)
    for name in ("residuals", "a_values", "step_lengths"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.final.values, want.final.values)


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
    for max_iter in (0, 2.5):
        with pytest.raises(ValueError, match=f"max_iter must be an integer >= 1, got {max_iter}"):
            run_iteration(
                model, f_delta, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), max_iter=max_iter
            )
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), h=0.0)
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), max_steps=-1)
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), h=math.inf)
    with pytest.raises(ValueError):
        run_euler(model, f_delta, 0.01, ContinuousSchedule(1.0, 1.0, 1.0), max_steps=2.5)
    with pytest.raises(ValueError):
        run_batch(model, [f_delta], [0.01], [ContinuousSchedule(1.0, 1.0, 1.0)], h=math.inf)
    with pytest.raises(ValueError):
        run_batch(model, [f_delta], [0.01], [DiscreteSchedule(1.0, 0.01, 0.9, 1)], max_steps=2.5)
    with pytest.raises(ValueError):
        DiscreteSchedule(math.inf, 0.01, 0.9, 1)


def test_grid_mismatch_rejected(identity_setup):
    grid, model, f_delta = identity_setup
    other = GridFunction(QuadratureGrid(31), np.zeros(31))
    with pytest.raises(ValueError):
        run_iteration(model, other, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1))


def test_start_on_other_grid_rejected(identity_setup):
    grid, model, f_delta = identity_setup
    other = GridFunction(QuadratureGrid(31), np.zeros(31))
    # the error names the start point's grid, not just a length mismatch
    with pytest.raises(GridMismatchError, match=r"QuadratureGrid\(n=31\)"):
        run_iteration(model, f_delta, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), u0=other)


class _CountingModel(OperatorModel):
    """Counts calls: ``sums`` of the kernel's running sums, ``exact`` of exact
    F evaluations (the running sums, or the identity's copy, plus g), and,
    by difference, ``trials`` of line-search trials, whose F comes from a
    carried L u."""

    sums = exact = evaluations = 0

    def _kernel_values(self, rows):
        self.sums += 1
        return super()._kernel_values(rows)

    def _split_values(self, values):
        self.exact += 1
        return super()._split_values(values)

    def _with_g(self, rows, linear):
        self.evaluations += 1
        return super()._with_g(rows, linear)

    @property
    def trials(self):
        return self.evaluations - self.exact

    def reset(self):
        self.sums = self.exact = self.evaluations = 0


def test_accepted_trial_supplies_next_residual():
    """The kernel's running sums run once at the batch start and once per
    stopping step: every other iterate's F is carried from the line search
    trial that made it.  On exp1's cell at delta_rel = 1% with c0 = 30,
    68.1 (the preset's) and 150 every full step is accepted, so each step is
    one trial for the whole stack, and each row stops on an exact F at its
    own step."""
    grid = QuadratureGrid(100)
    model = _CountingModel("arctan3", grid)
    f = model.apply(exact_solution("step", grid))
    f_delta, delta = calibrate_noise(f, sine_noise(grid), 0.01)
    schedules = [DiscreteSchedule(c0, delta, 0.99, 1) for c0 in (30.0, 68.1, 150.0)]
    model.reset()
    records = run_batch(model, [f_delta] * 3, [delta] * 3, schedules)
    stops = [record.n_stop for record in records]
    assert all(record.stopped_by_discrepancy for record in records)
    assert len(set(stops)) == 3 and min(stops) > 1
    assert model.sums == model.exact == 1 + 3
    assert model.trials == max(stops)
    for record in records:
        np.testing.assert_array_equal(record.step_lengths, np.ones(record.n_stop))


def _preset_and_stiff_configs():
    # the four presets, exp1 on eleven seeds, and the small-c0 starts that
    # backtrack, the Euler driver at h = 0.5 among them
    exp1, exp2 = PRESETS["exp1"], PRESETS["exp2"]
    seeds = tuple(range(1, 12))
    return (
        [exp1.override(seeds=seeds), exp2, PRESETS["exp1-const"], PRESETS["exp2-const"]]
        + [exp1.override(c0=c0, seeds=seeds) for c0 in (0.05, 0.01)]
        + [exp2.override(c0=c0) for c0 in (0.05, 0.01)]
        + [exp1.override(c0=0.01, mode="euler", h=0.5, seeds=seeds)]
    )


def test_every_stop_rests_on_an_exact_discrepancy():
    """A run stops only on an exactly evaluated F: in every cell of the
    presets and of the stiff starts the last residual is norms(F(final) -
    f_delta) bit for bit and below the threshold, and every earlier one,
    carried or replaced, is at or above it."""
    cells = 0
    for config in _preset_and_stiff_configs():
        for cell in run_cells(config):
            record, grid = cell.record, cell.model.grid
            exact = norms(grid, cell.model.apply(record.final).values - cell.f_delta.values)
            threshold = cell.rule.threshold(cell.delta_run)
            assert record.stopped_by_discrepancy
            assert record.residuals[-1] == exact < threshold
            assert np.all(record.residuals[:-1] >= threshold)
            cells += 1
    assert cells == 72 + 175


class _FalseFirstStop(_CountingModel):
    """Hands the first Newton step back with its L s off by F(u_1) - f_delta,
    u_1 = u_0 - s: the carried F at u_1 then reads as the data itself, a
    discrepancy of about 0, which the exact F at u_1 does not have."""

    def __init__(self, kind, grid, f_values):
        super().__init__(kind, grid)
        self.plain = OperatorModel(kind, grid)
        self.f_values = f_values
        self.steps = 0

    def _newton_step(self, values, a, rhs):
        step, lstep = super()._newton_step(values, a, rhs)
        self.steps += 1
        if self.steps == 1:
            lstep = lstep + (self.plain.apply_values(values - step) - self.f_values)
        return step, lstep


def test_replacement_rejects_a_false_carried_stop():
    # exp1's cell: the run's carried discrepancy at step 1 meets the stop,
    # the exact one replaces it, and the run goes on from the exact F to the
    # stop it has without the fault, with a valid certificate
    model, f_delta, delta = _exp1_setup()
    schedule = DiscreteSchedule(68.1, delta, 0.99, 1)
    plain = run_iteration(model, f_delta, delta, schedule)
    faulty = _FalseFirstStop("arctan3", model.grid, f_delta.values)
    record = run_iteration(faulty, f_delta, delta, schedule)
    threshold = StoppingRule().threshold(delta)
    assert record.stopped_by_discrepancy and record.n_stop == plain.n_stop == 55
    assert np.all(record.residuals[:-1] >= threshold) and record.residuals[-1] < threshold
    exact = norms(model.grid, model.apply(record.final).values - f_delta.values)
    assert record.residuals[-1] == exact
    # the running sums ran at the start, at the false stop and at the real one
    assert faulty.sums == 3
    np.testing.assert_allclose(record.residuals, plain.residuals, rtol=1e-9)


class _UphillSecondStep(_CountingModel):
    """Turns the second Newton step of the stack row ``row`` (of every row by
    default) around, with its image L s, so no step length of that row's
    search passes its Armijo test."""

    solves = 0
    row = slice(None)

    def _newton_step(self, values, a, rhs):
        self.solves += 1
        step, lstep = super()._newton_step(values, a, rhs)
        if self.solves == 2:
            step[self.row] *= -1.0
            lstep[self.row] *= -1.0
        return step, lstep


def test_a_stalled_run_ends_on_an_exact_f():
    """A run whose line search accepts no step length stalls: it stays at
    the iterate it had and ends there, not stopped by discrepancy, with the
    exact discrepancy there as its last residual.  On exp1's cell, with the
    second search sent uphill, a run capped at 2 or 4 steps ends at iterate
    1 with the record of a run capped at 1, and the running sums run at the
    start and at the stall only."""
    model, f_delta, delta = _exp1_setup()
    schedule = DiscreteSchedule(68.1, delta, 0.99, 1)
    one_step = run_iteration(model, f_delta, delta, schedule, max_iter=1)
    for cap in (2, 4):
        faulty = _UphillSecondStep("arctan3", model.grid)
        record = run_iteration(faulty, f_delta, delta, schedule, max_iter=cap)
        assert record.n_stop == 1 and not record.stopped_by_discrepancy
        assert faulty.exact == faulty.sums == 2
        exact = norms(model.grid, model.apply(record.final).values - f_delta.values)
        assert record.residuals[-1] == exact
        for name in ("residuals", "a_values", "step_lengths"):
            np.testing.assert_array_equal(getattr(record, name), getattr(one_step, name))
        np.testing.assert_array_equal(record.final.values, one_step.final.values)


def test_a_stalled_row_leaves_its_neighbours_as_they_run_alone():
    """In a batch of exp1's cell at c0 = 30, 68.1 and 150, the middle row's
    second search is sent uphill: that row stalls at iterate 1 with the
    record it gets alone, and the other two run on to their discrepancy
    stops, bit for bit as they run alone."""
    model, f_delta, delta = _exp1_setup()
    schedules = [DiscreteSchedule(c0, delta, 0.99, 1) for c0 in (30.0, 68.1, 150.0)]
    faulty = _UphillSecondStep("arctan3", model.grid)
    faulty.row = 1
    batch = run_batch(faulty, [f_delta] * 3, [delta] * 3, schedules)
    stalled = _UphillSecondStep("arctan3", model.grid)
    alone = [
        run_iteration(model, f_delta, delta, schedules[0]),
        run_iteration(stalled, f_delta, delta, schedules[1]),
        run_iteration(model, f_delta, delta, schedules[2]),
    ]
    assert [r.stopped_by_discrepancy for r in batch] == [True, False, True]
    assert batch[1].n_stop == 1 < min(batch[0].n_stop, batch[2].n_stop)
    for record, want in zip(batch, alone):
        assert record.n_stop == want.n_stop
        assert record.stopped_by_discrepancy == want.stopped_by_discrepancy
        for name in ("residuals", "a_values", "step_lengths"):
            np.testing.assert_array_equal(getattr(record, name), getattr(want, name))
        np.testing.assert_array_equal(record.final.values, want.final.values)


class _UphillAtShift(OperatorModel):
    """Turns the Newton step of each row at the shift ``uphill`` around, with
    its image L s, so no step length of that row's search passes its Armijo
    test."""

    uphill = None

    def _newton_step(self, values, a, rhs):
        step, lstep = super()._newton_step(values, a, rhs)
        flip = a[:, 0] == self.uphill
        step[flip], lstep[flip] = -step[flip], -lstep[flip]
        return step, lstep


@pytest.mark.parametrize("stall, cap", [(9, 12), (12, 12), (5, 9)])
def test_rows_leave_by_all_three_exits_as_they_run_alone(stall, cap):
    """In one batch of exp1's cell at c0 = 10.7, 30 and 68.1, the first row
    stops by discrepancy at step 9; the second row's search from iterate
    stall - 1 is sent uphill, so it stalls there; and the third, whose own
    stop is step 55, reaches the cap.  Each case puts two of the three exits
    in one iterate.  Every record is bit for bit the one its row gets alone,
    and the stalled row's last residual is its exact discrepancy."""
    model, f_delta, delta = _exp1_setup()
    schedules = [DiscreteSchedule(c0, delta, 0.99, 1) for c0 in (10.7, 30.0, 68.1)]
    faulty = _UphillAtShift("arctan3", model.grid)
    faulty.uphill = schedules[1].a(stall - 1)
    batch = run_batch(faulty, [f_delta] * 3, [delta] * 3, schedules, max_steps=cap)
    assert [(r.n_stop, r.stopped_by_discrepancy) for r in batch] == [
        (9, True), (stall - 1, False), (cap, False)
    ]
    exact = norms(model.grid, model.apply(batch[1].final).values - f_delta.values)
    assert batch[1].residuals[-1] == exact
    for record, schedule in zip(batch, schedules):
        want = run_iteration(faulty, f_delta, delta, schedule, max_iter=cap)
        assert record.n_stop == want.n_stop
        assert record.stopped_by_discrepancy == want.stopped_by_discrepancy
        for name in ("residuals", "a_values", "step_lengths"):
            np.testing.assert_array_equal(getattr(record, name), getattr(want, name))
        np.testing.assert_array_equal(record.final.values, want.final.values)


# c0 * (n - 1)**(p/2) for c0 = 3, p = 0.9 on the 60-point grid below: the
# arctan_setup runs take about 20 steps before the discrepancy stop
ARCTAN_C0 = 18.8


@pytest.fixture
def arctan_setup():
    grid = QuadratureGrid(60)
    model = OperatorModel("arctan3", grid)
    u_star = GridFunction(grid, grid.nodes * (1.0 - grid.nodes) + 0.5)
    f = model.apply(u_star)
    pert = GridFunction(grid, 0.02 * np.sin(5.0 * np.pi * grid.nodes))
    f_delta = GridFunction(grid, f.values + pert.values)
    return model, f_delta, norm(pert)


def _exp1_setup(kind="arctan3"):
    # the exp1 preset's cell at delta_rel = 1%, on sine noise; with the cubic
    # model, exp2's
    grid = QuadratureGrid(100)
    model = OperatorModel(kind, grid)
    f = model.apply(exact_solution("step", grid))
    f_delta, delta = calibrate_noise(f, sine_noise(grid), 0.01)
    return model, f_delta, delta


def test_euler_with_unit_step_matches_iteration(arctan_setup):
    """With h = 1 and a(t) = C0 delta^p/(shift + t) the Euler trace equals
    the discrete iteration's, float for float: on the arctan setup, along
    all 55 steps of exp1 (c0 = 68.1, p = 0.99, shift 1) and along exp2's
    cell (c0 = 15.8, p = 0.9, shift 6), so every preset's (shift, p)."""
    stops = []
    for (model, f_delta, delta), c0, p, shift in (
        (arctan_setup, ARCTAN_C0, 0.9, 1), (_exp1_setup(), 68.1, 0.99, 1),
        (_exp1_setup("cubic"), 15.8, 0.9, 6),
    ):
        discrete = DiscreteSchedule(c0=c0, delta=delta, p=p, shift=shift)
        continuous = ContinuousSchedule(d=c0 * delta ** p, c=float(shift), b=1.0)
        rec_i = run_iteration(model, f_delta, delta, discrete)
        rec_e = run_euler(model, f_delta, delta, continuous, h=1.0)
        assert rec_i.stopped_by_discrepancy and rec_e.stopped_by_discrepancy
        assert rec_i.n_stop == rec_e.n_stop
        stops.append(rec_i.n_stop)
        np.testing.assert_array_equal(rec_i.residuals, rec_e.residuals)
        np.testing.assert_array_equal(rec_i.a_values, rec_e.a_values)
        np.testing.assert_array_equal(rec_i.final.values, rec_e.final.values)
    assert stops[0] >= 10 and stops[1] == 55 and stops[2] > 1


def test_euler_takes_a_discrete_schedule_at_any_step_size(arctan_setup):
    # DiscreteSchedule builds a ContinuousSchedule, so h alone picks the integrator
    model, f_delta, delta = arctan_setup
    discrete = DiscreteSchedule(ARCTAN_C0, delta, 0.9, 1)
    continuous = ContinuousSchedule(d=ARCTAN_C0 * delta ** 0.9, c=1.0, b=1.0)
    got = run_euler(model, f_delta, delta, discrete, h=0.5)
    want = run_euler(model, f_delta, delta, continuous, h=0.5)
    assert got.stopped_by_discrepancy and got.n_stop == want.n_stop
    for name in ("residuals", "a_values", "step_lengths"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.final.values, want.final.values)


def test_smaller_euler_step_needs_more_steps(arctan_setup):
    model, f_delta, delta = arctan_setup
    continuous = ContinuousSchedule(d=ARCTAN_C0 * delta ** 0.9, c=1.0, b=1.0)
    full = run_euler(model, f_delta, delta, continuous, h=1.0, max_steps=2000)
    half = run_euler(model, f_delta, delta, continuous, h=0.5, max_steps=2000)
    assert full.stopped_by_discrepancy and half.stopped_by_discrepancy
    assert half.n_stop >= full.n_stop >= 10


def test_runs_are_deterministic(arctan_setup):
    model, f_delta, delta = arctan_setup
    sched = DiscreteSchedule(c0=ARCTAN_C0, delta=delta, p=0.9, shift=1)
    rec1 = run_iteration(model, f_delta, delta, sched)
    rec2 = run_iteration(model, f_delta, delta, sched)
    assert rec1.n_stop == rec2.n_stop
    np.testing.assert_array_equal(rec1.residuals, rec2.residuals)
    np.testing.assert_array_equal(rec1.final.values, rec2.final.values)


def _saturating_runaway():
    """A counting arctan3 model and a run of it from a small a_0 that
    overshoots onto the arctan plateau without damping."""
    grid = QuadratureGrid(100)
    model = _CountingModel("arctan3", grid)
    x = grid.nodes
    u_star = GridFunction(grid, np.where((x >= 1.0 / 3.0) & (x <= 2.0 / 3.0), 0.0, 1.0))
    f = model.apply(u_star)
    pert = GridFunction(grid, 1e-3 * np.sin(3.0 * np.pi * x))
    f_delta = GridFunction(grid, f.values + pert.values)
    delta = norm(pert)
    # c0 = 7 * 99**0.495, the exp1 preset's
    sched = DiscreteSchedule(c0=68.1, delta=delta, p=0.99, shift=1)
    model.reset()
    return model, run_iteration(model, f_delta, delta, sched, max_iter=200)


def test_backtracking_recovers_saturating_runaway():
    """Small a_0 on the saturating model overshoots onto the arctan plateau;
    the damped step must still bring the run to the discrepancy stop."""
    model, record = _saturating_runaway()
    assert record.stopped_by_discrepancy
    # the run is long enough to reach the small a_n where raw steps run
    # away, and the line search rejects at least one full step on the way
    assert record.n_stop >= 40
    assert model.trials > record.n_stop
    assert np.max(np.abs(record.final.values)) < 5.0


def test_search_starts_at_twice_the_last_step_length():
    """Each step's search starts at lam0 = min(1, 2*lam_prev) and halves from
    there, so a step that takes lam costs 1 + log2(lam0/lam) trials.  F is
    evaluated exactly at the start and at the stop only.  The run is one
    row, so a call is one row evaluation."""
    model, record = _saturating_runaway()
    lam = record.step_lengths
    assert len(lam) == record.n_stop
    assert np.all((lam > 0) & (lam <= 1))
    assert lam.min() < 1
    lam0 = np.minimum(1.0, 2.0 * np.concatenate([[1.0], lam[:-1]]))
    halvings = np.log2(lam0 / lam)
    assert np.all(halvings == halvings.astype(int)) and halvings.min() >= 0
    assert model.trials == np.sum(1 + halvings.astype(int))
    assert model.exact == model.sums == 2


def _exp2_const_cell():
    # the exp2-const preset's cell at delta_rel = 3%: cubic, const_one, n = 30,
    # sine noise, a(t) = 4.55 delta^0.9 / (6 + t)
    config = PRESETS["exp2-const"]
    grid = QuadratureGrid(config.n_points)
    model = OperatorModel(config.model, grid)
    f = model.apply(exact_solution(config.exact, grid))
    f_delta, delta = calibrate_noise(f, sine_noise(grid), 0.03)
    return model, f_delta, delta, DiscreteSchedule(config.c0, delta, config.p, config.shift)


def test_euler_takes_full_steps_below_the_armijo_slack():
    """At h = 1e-5 the Armijo slack 1e-4*lam is on the step actually taken,
    so the full Euler step passes: the run takes three steps of length h to
    its cap rather than stalling at iterate 0."""
    model, f_delta, delta, schedule = _exp2_const_cell()
    record = run_euler(model, f_delta, delta, schedule, h=1e-5, max_steps=3)
    assert record.n_stop == 3 and not record.stopped_by_discrepancy
    assert record.step_lengths.tolist() == [1e-5] * 3


@pytest.mark.parametrize("h", [0.5, 0.25])
def test_stalled_run_leaves_below_its_cap(h):
    """cubic on the data 1e6*(1 + x) with a tiny schedule reaches an iterate
    whose line search passes no step length, and stalls there.  From a first
    trial of h <= 1/2 the last trial's length is below 5.6e-13, where
    1 - 1e-4*lam rounds to 1; the Armijo test is strict, so a trial that no
    longer moves the iterate fails too, and the run stalls instead of taking
    steps of about 4.5e-13 to its cap."""
    grid = QuadratureGrid(100)
    f_delta = GridFunction(grid, 1e6 * (1.0 + grid.nodes))
    schedule = ContinuousSchedule(d=1e10, c=1e12, b=1)
    (record,) = run_batch(
        OperatorModel("cubic", grid), [f_delta], [1e-3], [schedule], h=h, max_steps=200
    )
    assert record.n_stop < 200 and not record.stopped_by_discrepancy
    assert record.step_lengths.min() >= 1e-12


@pytest.mark.parametrize("h", [0.5, 0.25, 3.0])
def test_step_lengths_are_flow_time(monkeypatch, h):
    """A run's step lengths are flow time, t += lam: each is h*2^-j.  The
    search's first trial is the full Euler step h, h > 2 included, and after
    that min(h, 2*lam) from the length lam last taken.  On exp1's cell with
    c0 = 68.1 every step at h <= 1 is the full step, so it records h."""
    starts = []

    def spy(*args):
        starts.append(args[-1].copy())
        return line_search(*args)

    line_search = regsolve.line_search
    monkeypatch.setattr(regsolve, "line_search", spy)
    model, f_delta, delta = _exp1_setup()
    cells = [
        _exp2_const_cell(),
        (model, f_delta, delta, DiscreteSchedule(68.1, delta, 0.99, 1)),
        (model, f_delta, delta, DiscreteSchedule(0.01, delta, 0.99, 1)),
    ]
    for i, (model, f_delta, delta, schedule) in enumerate(cells):
        starts.clear()
        record = run_euler(model, f_delta, delta, schedule, h=h, max_steps=2000)
        lam = record.step_lengths
        assert record.stopped_by_discrepancy and len(lam) == record.n_stop > 1
        halvings = np.log2(h / lam)
        assert np.all(halvings == np.round(halvings)) and halvings.min() >= 0
        lam0 = np.concatenate(starts)
        assert lam0.tolist() == [h] + np.minimum(h, 2.0 * lam[:-1]).tolist()
        if i == 1 and h < 1:
            assert lam.tolist() == [h] * record.n_stop


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
        model, f_delta, 1e-12, DiscreteSchedule(ARCTAN_C0, delta, 0.9, 1), max_iter=cap,
    ).n_stop,
    "run_euler": lambda model, f_delta, delta, cap: run_euler(
        model, f_delta, 1e-12, ContinuousSchedule(d=ARCTAN_C0 * delta ** 0.9, c=1.0, b=1.0),
        h=0.5, max_steps=cap,
    ).n_stop,
    "solve_regularized": lambda model, f_delta, delta, cap: _capped_solve(model, f_delta, cap),
}


def _capped_solve(model, f_delta, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regsolve, "_TOL", 1e-300)
        patch.setattr(regsolve, "_MAX_ITER", cap)
        return solve_regularized(model, f_delta, 1e-3).iterations


@pytest.mark.parametrize("name", sorted(_CAPPED_RUNS))
def test_newton_loops_wrap_only_at_the_boundary(monkeypatch, arctan_setup, name):
    """The Newton loops run on raw arrays: a call builds the same few
    GridFunction objects whether it takes two steps or ten."""
    model, f_delta, delta = arctan_setup
    short = _count_wraps(monkeypatch, lambda: _CAPPED_RUNS[name](model, f_delta, delta, 2))
    long = _count_wraps(monkeypatch, lambda: _CAPPED_RUNS[name](model, f_delta, delta, 10))
    assert (short[1], long[1]) == (2, 10)
    assert short[0] == long[0] <= 3


def test_large_grid_run_builds_no_dense_kernel(monkeypatch):
    # n = 1e5: a dense kernel would take 80 GB, the O(n) Newton step none;
    # the dense Jacobian is the only place one is formed
    monkeypatch.setattr(OperatorModel, "jacobian", _no_dense_matrix)
    grid = QuadratureGrid(100_000)
    model = OperatorModel("arctan3", grid)
    f = model.apply(GridFunction(grid, 1.0 - grid.nodes))
    noise = GridFunction(grid, 1e-4 * np.sin(40.0 * grid.nodes))
    f_delta = GridFunction(grid, f.values + noise.values)
    delta = norm(noise)
    # c0 * (n - 1)**(p/2) for c0 = 7, p = 0.99
    sched = DiscreteSchedule(c0=2090.0, delta=delta, p=0.99, shift=1)
    record = run_iteration(model, f_delta, delta, sched, max_iter=3)
    assert record.n_stop == 3 and not record.stopped_by_discrepancy
    assert np.all(np.diff(record.residuals) < 0)


def _no_dense_matrix(model, u):
    raise AssertionError("formed a dense n x n matrix")


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=200),
    mode=st.sampled_from(["iterate", "euler-1", "euler-0.5"]),
    levels=st.lists(st.floats(1e-4, 0.2), min_size=1, max_size=6),
    c0=st.floats(0.05, 10.0),
)
@settings(max_examples=40, deadline=None)
# a stiff start: every row backtracks, and the rows stop after 17, 6 and 35
# steps, so the stops compact the step-length state of rows still running
# from the middle and from the front of the stack
@example(kind="arctan3", n=60, mode="euler-0.5", levels=[0.01, 0.1, 1e-4], c0=0.05)
def test_batch_rows_match_runs_alone(kind, n, mode, levels, c0):
    """Each row of a batch, with its own noise level, schedule and stop,
    gets bit for bit the record it gets from run_iteration / run_euler
    alone, wherever the other rows stop."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    f = model.apply(GridFunction(grid, 1.0 - grid.nodes + 0.5 * np.sin(4.0 * grid.nodes)))
    c0 *= (n - 1) ** 0.45
    f_deltas, deltas, schedules = [], [], []
    for k, level in enumerate(levels):
        noise = GridFunction(grid, level * np.cos((3.0 + k) * np.pi * grid.nodes))
        f_deltas.append(GridFunction(grid, f.values + noise.values))
        deltas.append(norm(noise))
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
        np.testing.assert_array_equal(record.step_lengths, alone.step_lengths)


@pytest.mark.parametrize("h, c0s", [(1.0, (100.0, 40.0, 200.0)), (0.5, (50.0, 20.0, 100.0))])
def test_batch_rows_match_runs_alone_past_the_tables_growth(h, c0s):
    """The driver's step table has room for 64 steps, then doubles.  Rows
    leave before step 64, between 64 and 128 and after 128 (33, 81 and 162
    steps: a large c0 keeps a_n above the discrepancy for longer), and each
    gets bit for bit the record it gets alone."""
    grid = QuadratureGrid(30)
    model = OperatorModel("arctan3", grid)
    f_delta, delta = calibrate_noise(
        model.apply(exact_solution("step", grid)), sine_noise(grid), 0.01
    )
    schedules = [ContinuousSchedule(d=c0 * delta ** 0.99, c=1.0, b=1.0) for c0 in c0s]
    batch = run_batch(model, [f_delta] * 3, [delta] * 3, schedules, h=h)
    steps = [record.n_stop for record in batch]
    assert steps[1] < 64 < steps[0] < 128 < steps[2]
    threshold = StoppingRule().threshold(delta)
    for record, schedule in zip(batch, schedules):
        # the table kept every step's shift and discrepancy through its growth
        t = h * np.arange(record.n_stop + 1)
        np.testing.assert_array_equal(record.a_values, schedule.a(t))
        assert np.all(record.residuals[:-1] >= threshold) and record.residuals[-1] < threshold
        alone = run_euler(model, f_delta, delta, schedule, h=h)
        assert record.stopped_by_discrepancy and alone.stopped_by_discrepancy
        assert record.n_stop == alone.n_stop
        for name in ("residuals", "a_values", "step_lengths"):
            np.testing.assert_array_equal(getattr(record, name), getattr(alone, name))
        np.testing.assert_array_equal(record.final.values, alone.final.values)


class _SingularModel(OperatorModel):
    """Raises for the second row of every stack it is asked to solve."""

    def _newton_step(self, values, a, rhs):
        if len(values) > 1:
            raise SingularShiftError(5, row=1)
        return super()._newton_step(values, a, rhs)


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
        run_batch(model, [f_delta], [0.05], [lambda n: 1.0])


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=1200),
    c0=st.floats(1e-8, 1e4),
    p=st.floats(0.05, 1.0),
    shift=st.integers(min_value=1, max_value=10),
    levels=st.lists(st.floats(1e-4, 0.2), min_size=1, max_size=4),
    h=st.sampled_from([0.5, 1.0, 2.0]),
    cap=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_every_batched_run_ends_in_a_named_state(kind, n, c0, p, shift, levels, h, cap):
    """Every row of a batch, wherever it starts, either stops with a valid
    certificate (its last residual below C*delta^gamma, every earlier one at
    or above it) or ends unstopped at or below its cap with its last residual
    at or above the threshold.  Its last residual is ||F(final) - f_delta||
    from model.apply bit for bit, its residuals, shifts and final iterate
    are finite, its shifts strictly decrease and each step length is
    h*2^-j."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    f = model.apply(GridFunction(grid, 1.0 - grid.nodes + 0.5 * np.sin(4.0 * grid.nodes)))
    rule = StoppingRule()
    f_deltas, deltas = [], []
    for k, level in enumerate(levels):
        noise = GridFunction(grid, np.cos((3.0 + k) * np.pi * grid.nodes))
        f_delta, delta = calibrate_noise(f, noise, level)
        f_deltas.append(f_delta)
        deltas.append(delta)
    schedules = [DiscreteSchedule(c0, delta, p, shift) for delta in deltas]
    batch = run_batch(model, f_deltas, deltas, schedules, rule, h=h, max_steps=cap)
    assert len(batch) == len(levels)
    for record, f_delta, delta in zip(batch, f_deltas, deltas):
        threshold = rule.threshold(delta)
        residuals = record.residuals
        assert record.n_stop <= cap
        assert len(residuals) == len(record.a_values) == record.n_stop + 1
        assert np.all(residuals[:-1] >= threshold)
        if record.stopped_by_discrepancy:
            assert residuals[-1] < threshold
        else:
            assert residuals[-1] >= threshold
        exact = norms(grid, model.apply(record.final).values - f_delta.values)
        assert residuals[-1] == exact
        for values in (residuals, record.a_values, record.final.values):
            assert np.all(np.isfinite(values))
        assert np.all(np.diff(record.a_values) < 0)
        lengths = record.step_lengths / h
        assert len(lengths) == record.n_stop
        assert np.all((lengths <= 1.0) & (np.frexp(lengths)[0] == 0.5))
