import numpy as np
import pytest

from deskst import tensor as tz
from deskst.numerics import (
    LrSchedule,
    OptimizerState,
    ParamStore,
    adam_step,
    backward,
    plateau_update,
    rng_for,
    seeded_init,
)
from deskst.tensor import NonFiniteError, NumericsError, ShapeError

from util import NonDeterministicLossError, check_grads, store_with


def test_backward_quadratic():
    store = store_with(p=[3.0])
    grads = backward(tz.tsum(store["p"] * store["p"]), store)
    assert grads["p"] == pytest.approx([6.0])


def test_backward_zero_for_nonparticipating_params():
    store = store_with(p=[3.0], q=[1.0, 2.0])
    grads = backward(tz.tsum(store["p"] * store["p"]), store)
    assert np.array_equal(grads["q"], np.zeros(2))


def test_grad_check_simple_and_constant():
    store = store_with(p=[3.0])
    assert check_grads(lambda: tz.tsum(store["p"] * store["p"]), store) <= 1e-8
    # constant loss: analytic 0, FD 0
    const = store_with(p=[1.0])
    assert check_grads(lambda: tz.tsum(const["p"] * 0.0 + 5.0), const) == 0.0


def test_grad_check_detects_nondeterminism():
    store = store_with(p=[1.0])
    rng = np.random.default_rng(0)

    def noisy():
        return tz.tsum(store["p"] * rng.normal())

    with pytest.raises(NonDeterministicLossError):
        check_grads(noisy, store)


def test_grad_check_flags_a_wrong_gradient():
    store = store_with(p=[3.0])

    def half_gradient():
        p = store["p"]
        return tz.tsum(tz._node(p.data * p.data, (p,), lambda g: (g * p.data,)))

    with pytest.raises(AssertionError, match="gradient mismatch"):
        check_grads(half_gradient, store)


def test_seeded_init_schemes():
    rng = rng_for(7, "w")
    z = seeded_init((3, 4), "zeros", rng)
    assert np.all(z.data == 0.0)
    u1 = seeded_init((50, 4), "uniform-fanin", rng_for(7, "w"))
    u2 = seeded_init((50, 4), "uniform-fanin", rng_for(7, "w"))
    assert np.array_equal(u1.data, u2.data)  # same seed twice -> bit identical
    assert np.abs(u1.data).max() <= 1.0 / np.sqrt(50)
    fan4 = seeded_init((4, 100), "uniform-fanin", rng_for(0, "x"))
    assert np.abs(fan4.data).max() <= 0.5
    with pytest.raises(ShapeError):
        seeded_init((0, 3), "zeros", rng)


def test_param_store_set_rejects_a_wrong_shape_and_non_finite_values():
    store = store_with(w=np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"^w: cannot assign shape \(3, 2\) to \(2, 3\)"):
        store.set("w", np.zeros((3, 2)))
    with pytest.raises(NonFiniteError, match="^non-finite assignment to w"):
        store.set("w", np.full((2, 3), np.nan))
    assert not store["w"].data.any()


def test_param_store_name_keyed_init_is_order_independent():
    a = ParamStore(11)
    a.create("enc.w", (4, 4))
    a.create("dec.w", (4, 4))
    b = ParamStore(11)
    b.create("dec.w", (4, 4))
    b.create("enc.w", (4, 4))
    assert np.array_equal(a["enc.w"].data, b["enc.w"].data)
    assert np.array_equal(a["dec.w"].data, b["dec.w"].data)
    assert not np.array_equal(a["enc.w"].data, a["dec.w"].data)
    with pytest.raises(KeyError):
        a.create("enc.w", (4, 4))


def test_adam_zero_gradients_leave_params_unchanged():
    store = store_with(p=[1.0, -2.0])
    opt = OptimizerState(learning_rate=0.1)
    before = store["p"].data.copy()
    adam_step(store, {"p": np.zeros(2)}, opt)
    assert np.array_equal(store["p"].data, before)
    assert opt.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # With g=1 everywhere and bias correction, the first update is
    # lr * 1 / (1 + eps) regardless of beta values.
    store = store_with(p=[0.0])
    lr = 0.5
    opt = OptimizerState(learning_rate=lr)
    adam_step(store, {"p": np.ones(1)}, opt)
    expected = lr * 1.0 / (1.0 + opt.eps)
    assert store["p"].data[0] == pytest.approx(-expected, rel=1e-12)


def test_adam_two_identical_steps():
    store = store_with(p=[0.0])
    lr = 0.1
    opt = OptimizerState(learning_rate=lr)
    adam_step(store, {"p": np.ones(1)}, opt)
    first = store["p"].data[0]
    adam_step(store, {"p": np.ones(1)}, opt)
    assert opt.step == 2
    second_update = store["p"].data[0] - first
    # m_hat = 1, v_hat = 1 at every step for constant unit gradients
    assert second_update == pytest.approx(-lr / (1.0 + opt.eps), rel=1e-12)


def test_adam_rejects_mismatched_names_and_shapes():
    store = store_with(p=[1.0])
    opt = OptimizerState(learning_rate=0.1)
    with pytest.raises(NumericsError):
        adam_step(store, {}, opt)
    with pytest.raises(ShapeError):
        adam_step(store, {"p": np.zeros((2, 2))}, opt)


def test_adam_rejects_a_non_finite_update_naming_the_parameter():
    store = store_with(p=[1.0, -2.0])
    opt = OptimizerState(learning_rate=0.1)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite Adam update for p"):
        adam_step(store, {"p": np.array([0.0, np.inf])}, opt)  # inf / inf in the moment ratio
    assert store["p"].data.tolist() == [1.0, -2.0]


def test_plateau_improving_scores_keep_lr():
    sched = LrSchedule(lr=1.0, decay_factor=0.9, patience=6)
    for score in [0.1, 0.2, 0.3, 0.4]:
        lr = plateau_update(sched, score)
    assert lr == 1.0
    assert sched.stale_count == 0


def test_plateau_decays_after_patience_nonimproving():
    sched = LrSchedule(lr=1.0, decay_factor=0.9, patience=6)
    plateau_update(sched, 0.5)
    for _ in range(5):
        lr = plateau_update(sched, 0.4)
        assert lr == 1.0
    lr = plateau_update(sched, 0.4)  # 6th consecutive non-improving
    assert lr == pytest.approx(0.9)
    assert sched.stale_count == 0


def test_plateau_reset_on_improvement():
    sched = LrSchedule(lr=1.0, decay_factor=0.9, patience=6)
    plateau_update(sched, 0.5)
    for _ in range(5):
        plateau_update(sched, 0.4)
    lr = plateau_update(sched, 0.6)  # improvement before patience is hit
    assert lr == 1.0
    assert sched.stale_count == 0
    assert sched.best_score == 0.6
    assert sched.stale_count <= sched.patience
