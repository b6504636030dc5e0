import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskst import tensor as tz
from deskst.ctc import (
    CtcInfeasibleError,
    batched_ctc_loss,
    ctc_lattice,
    ctc_loss,
    extend_with_blanks,
    min_frames_required,
)
from deskst.tensor import NumericsError, Tensor, backward_graph

from util import store_with


def ctc_brute_force(frame_probs: np.ndarray, target: np.ndarray) -> float:
    """p_ctc by enumerating all (V+1)^T paths; the test oracle for the DP.

    ``frame_probs`` are plain probabilities (T, V+1) with blank last.
    Collapse rule: merge consecutive repeats, then delete blanks.
    """
    probs = np.asarray(frame_probs, dtype=np.float64)
    T, width = probs.shape
    blank = width - 1
    if width**T > 10**6:
        raise NumericsError(f"brute force instance too large: {width}^{T} paths")
    wanted = tuple(int(t) for t in np.asarray(target))
    total = 0.0
    for path in itertools.product(range(width), repeat=T):
        collapsed = [k for k, _ in itertools.groupby(path) if k != blank]
        if tuple(collapsed) == wanted:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return total


def random_logprobs(rng, T, width, sharp=1.0):
    logits = rng.normal(size=(T, width)) * sharp
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def test_extend_with_blanks():
    assert extend_with_blanks(np.array([0, 1]), 9).tolist() == [9, 0, 9, 1, 9]


def test_min_frames_counts_repeats():
    assert min_frames_required(np.array([0])) == 1
    assert min_frames_required(np.array([0, 0])) == 3
    assert min_frames_required(np.array([0, 1, 1, 1])) == 6


def test_single_frame_single_label():
    # T=1, target "a": the only path emits the label directly
    p = np.array([[0.6, 0.4]])  # classes: a, blank
    loss = ctc_loss(np.log(p), np.array([0]))
    assert loss.item() == pytest.approx(-np.log(0.6), rel=1e-12)


def test_two_frames_uniform_worked_example():
    # T=2, uniform 0.5/0.5 over {a, blank}; paths (a,a), (a,_), (_,a) -> p=0.75
    p = np.full((2, 2), 0.5)
    loss = ctc_loss(np.log(p), np.array([0]))
    assert loss.item() == pytest.approx(-np.log(0.75), rel=1e-12)
    assert ctc_brute_force(p, np.array([0])) == pytest.approx(0.75, rel=1e-12)


def test_repeated_label_needs_separating_blank():
    p = np.full((2, 2), 0.5)
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(np.log(p), np.array([0, 0]))


def test_no_path_of_non_zero_probability_raises_the_typed_error():
    # Finite log-probs, enough frames, but every path through the labels
    # sums below -1e308: the DP's -inf is the path mass of 0, not a warning.
    lp = np.full((3, 3), -1e308)
    lp[:, 2] = 0.0
    with pytest.raises(CtcInfeasibleError, match="CTC row 0: no alignment path has non-zero probability"):
        ctc_loss(lp, np.array([0, 1]))


def test_extreme_but_feasible_log_probs_give_the_certain_paths_loss_and_grad():
    # One path has probability 1; the rest sum below -1e308 in the DP and in
    # the gradient's path mass, and get none of it.
    lp = np.full((4, 2), -1e308)
    lp[[0, 1, 3], 1] = 0.0  # blank, blank, label, blank
    lp[2, 0] = 0.0
    x = Tensor(lp)
    loss = ctc_loss(x, np.array([0]))
    assert loss.item() == 0.0
    assert np.array_equal(backward_graph(loss)[id(x)], -(lp == 0.0).astype(np.float64))


def test_target_longer_than_frames_brute_force_zero():
    p = np.full((2, 3), 1 / 3)
    assert ctc_brute_force(p, np.array([0, 1, 0])) == 0.0


def test_degenerate_certain_path():
    p = np.array([[1.0, 0.0]])
    assert ctc_brute_force(p, np.array([0])) == pytest.approx(1.0)


def test_dp_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(60):
        T = int(rng.integers(1, 7))
        V = int(rng.integers(1, 5))
        J = int(rng.integers(1, 4))
        target = rng.integers(0, V, size=J)
        if min_frames_required(target) > T:
            continue
        lp = random_logprobs(rng, T, V + 1)
        p_bf = ctc_brute_force(np.exp(lp), target)
        loss = ctc_loss(lp, target)
        assert abs(loss.item() - (-np.log(p_bf))) <= 1e-9


def test_lattice_alpha_beta_consistency():
    rng = np.random.default_rng(1)
    lp = random_logprobs(rng, 5, 4)
    target = np.array([0, 2, 1])
    lat = ctc_lattice(lp, target)
    assert lat.extended.shape == (7,)
    from_alpha = np.logaddexp(lat.alpha[-1, -1], lat.alpha[-1, -2])
    # initial-state alphas (first emission) with their betas
    from_beta = np.logaddexp(lat.alpha[0, 0] + lat.beta[0, 0], lat.alpha[0, 1] + lat.beta[0, 1])
    assert from_alpha == pytest.approx(from_beta, abs=1e-9)
    # the total path mass through every time slice equals log p
    gamma = lat.alpha + lat.beta
    for t in range(5):
        slice_mass = np.logaddexp.reduce(gamma[t])
        assert slice_mass == pytest.approx(lat.log_prob, abs=1e-9)


def ctc_loss_grad(lp, target):
    """Gradient of ctc_loss w.r.t. the frame log-probs, through backward_graph."""
    frames = Tensor(lp)
    return backward_graph(ctc_loss(frames, target))[id(frames)]


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    for trial in range(5):
        T = int(rng.integers(2, 6))
        V = int(rng.integers(1, 4))
        target = rng.integers(0, V, size=int(rng.integers(1, 3)))
        if min_frames_required(target) > T:
            continue
        lp = random_logprobs(rng, T, V + 1)
        grad = ctc_loss_grad(lp, target)
        eps = 1e-6
        fd = np.zeros_like(lp)
        for t in range(T):
            for k in range(V + 1):
                up = lp.copy()
                up[t, k] += eps
                dn = lp.copy()
                dn[t, k] -= eps
                # bypass row-normalization validation with direct lattice calls
                up_loss = -ctc_lattice_unchecked(up, target)
                dn_loss = -ctc_lattice_unchecked(dn, target)
                fd[t, k] = (up_loss - dn_loss) / (2 * eps)
        assert np.abs(grad - fd).max() <= 1e-6


def ctc_lattice_unchecked(lp, target):
    """log p_ctc from the DP on inputs the row-mass check would reject."""
    from deskst.ctc import _Batch, _forward_backward, extend_with_blanks

    ext = extend_with_blanks(np.asarray(target, dtype=np.int64), lp.shape[1] - 1)
    batch = _Batch(lp[None], np.array([lp.shape[0]]), np.array([len(target)]), ext[None])
    return _forward_backward(batch).log_prob[0]


def test_grad_zero_for_symbols_outside_target_and_blank():
    rng = np.random.default_rng(3)
    lp = random_logprobs(rng, 5, 5)  # V=4 + blank
    target = np.array([1, 2])
    grad = ctc_loss_grad(lp, target)
    assert np.all(grad[:, 0] == 0.0)
    assert np.all(grad[:, 3] == 0.0)
    assert np.any(grad[:, 1] != 0.0) and np.any(grad[:, 4] != 0.0)


def test_grad_composed_with_log_softmax_sums_to_zero_per_frame():
    rng = np.random.default_rng(4)
    store = store_with(logits=rng.normal(size=(4, 4)))
    target = np.array([0, 2])
    loss = ctc_loss(tz.log_softmax(store["logits"]), target)
    grads = backward_graph(loss)
    glogits = grads[id(store["logits"])]
    assert np.abs(glogits.sum(axis=1)).max() <= 1e-12


def test_ctc_loss_gradcheck_through_softmax():
    rng = np.random.default_rng(5)
    store = store_with(logits=rng.normal(size=(5, 4)))
    target = np.array([1, 0])

    from util import check_grads

    check_grads(lambda: ctc_loss(tz.log_softmax(store["logits"]), target), store, tol=1e-6)


def test_permutation_covariance():
    rng = np.random.default_rng(6)
    lp = random_logprobs(rng, 5, 4)  # V=3 + blank
    target = np.array([0, 2, 1])
    perm = np.array([2, 0, 1])  # relabel vocabulary (blank stays last)
    lp_perm = lp.copy()
    lp_perm[:, perm] = lp[:, [0, 1, 2]]
    loss = ctc_loss(lp, target)
    loss_perm = ctc_loss(lp_perm, perm[target])
    assert loss.item() == pytest.approx(loss_perm.item(), rel=1e-12)


def test_no_underflow_for_long_sequences():
    rng = np.random.default_rng(7)
    T = 1000
    lp = np.log(np.full((T, 3), 1e-30))
    lp[:, 2] = np.log(1.0 - 2e-30)  # blank carries almost all mass
    row = np.exp(lp).sum(axis=1)
    lp -= np.log(row)[:, None]
    loss = ctc_loss(lp, np.array([0, 1]))
    assert np.isfinite(loss.item())


def test_validation_errors():
    good = np.log(np.full((3, 3), 1 / 3))
    with pytest.raises(NumericsError):
        ctc_loss(good, np.array([], dtype=int))
    with pytest.raises(NumericsError):
        ctc_loss(good, np.array([2]))  # blank id not allowed as target
    with pytest.raises(NumericsError):
        ctc_loss(np.zeros((3, 3)), np.array([0]))  # rows not normalized
    with pytest.raises(NumericsError):
        ctc_brute_force(np.full((30, 10), 0.1), np.array([0]))  # too large


# ---------------------------------------------------------------------------
# batched CTC: one DP over a ragged batch
# ---------------------------------------------------------------------------


@st.composite
def ragged_batches(draw):
    """(log-probs (B, T, V+1), frame lengths, targets (B, J), target lengths):
    B 1-4, T_b 1-6, J_b 1-3 with repeats allowed; padding holds junk."""
    V = draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=3))
        frames = draw(st.integers(min_frames_required(np.array(target)), 6))
        rows.append((target, frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B, T, J = len(rows), max(f for _, f in rows), max(len(t) for t, _ in rows)
    lp = rng.normal(size=(B, T, V + 1)) * 3.0  # padded frames: not distributions
    targets = np.full((B, J), V)  # padded labels: the blank id, invalid as a label
    for b, (target, frames) in enumerate(rows):
        lp[b, :frames] = random_logprobs(rng, frames, V + 1, sharp=2.0)
        targets[b, : len(target)] = target
    return lp, np.array([f for _, f in rows]), targets, np.array([len(t) for t, _ in rows])


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(ragged_batches())
def test_batched_loss_is_the_row_order_sum_of_per_row_losses(case):
    lp, frames, targets, labels = case
    rows = [(lp[b, : frames[b]], targets[b, : labels[b]]) for b in range(len(frames))]
    total = ctc_loss(*rows[0]).data
    for row in rows[1:]:
        total = total + ctc_loss(*row).data
    batched = batched_ctc_loss(lp, frames, targets, labels)
    assert batched.data.tobytes() == total.tobytes()
    brute = sum(-np.log(ctc_brute_force(np.exp(row_lp), target)) for row_lp, target in rows)
    assert batched.item() == pytest.approx(brute, rel=1e-12)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(ragged_batches())
def test_batched_grad_is_zero_off_each_rows_frames_and_labels(case):
    lp, frames, targets, labels = case
    x = Tensor(lp)
    grad = backward_graph(batched_ctc_loss(x, frames, targets, labels))[id(x)]
    blank = lp.shape[2] - 1
    for b in range(len(frames)):
        assert not grad[b, frames[b] :].any()
        unused = np.setdiff1d(np.arange(blank), targets[b, : labels[b]])
        assert not grad[b, :, unused].any()
        row_grad = ctc_loss_grad(lp[b, : frames[b]], targets[b, : labels[b]])
        assert grad[b, : frames[b]].tobytes() == row_grad.tobytes()


def test_batched_ctc_gradcheck_through_softmax():
    # two rows of different frame and label counts; the padded frame's
    # logits get no gradient
    rng = np.random.default_rng(8)
    store = store_with(logits=rng.normal(size=(2, 5, 4)))
    frames, targets, labels = np.array([3, 5]), np.array([[2, 0], [1, 1]]), np.array([1, 2])

    from util import check_grads

    check_grads(lambda: batched_ctc_loss(tz.log_softmax(store["logits"]), frames, targets, labels), store, tol=1e-6)


def test_malformed_inputs_are_rejected_before_the_dp():
    lp = np.log(np.full((2, 4, 3), 1 / 3))
    targets, labels = np.array([[0, 1], [1, 0]]), np.array([2, 2])
    with pytest.raises(NumericsError, match=r"^frame log-probs must be \(B, T, V\+1\)"):
        batched_ctc_loss(lp[0], np.array([4]), targets[:1], labels[:1])
    with pytest.raises(NumericsError, match=r"^frame lengths must be \(B,\) in \[0, 4\]"):
        batched_ctc_loss(lp, np.array([4, 5]), targets, labels)
    with pytest.raises(NumericsError, match=r"^CTC targets must be \(B, J\) ids"):
        batched_ctc_loss(lp, np.array([4, 4]), targets, np.array([2, 3]))
    with pytest.raises(NumericsError, match=r"^CTC needs \(T, V\+1\) frame log-probs and a 1-D target"):
        ctc_loss(lp[0], targets)


def test_batched_infeasible_row_is_named():
    lp = np.log(np.full((3, 4, 3), 1 / 3))
    targets = np.array([[0, 1], [1, 1], [0, 0]])
    with pytest.raises(CtcInfeasibleError, match="CTC row 2: target needs at least 3 frames, got 2"):
        batched_ctc_loss(lp, np.array([4, 3, 2]), targets, np.array([2, 2, 2]))


def test_batched_validation_reads_valid_frames_and_labels_only():
    lp = np.log(np.full((2, 3, 3), 1 / 3))
    lp[0, 2] = 5.0  # padded frame, not a distribution
    targets = np.array([[0, 7], [1, 0]])  # 7: padded label, out of range
    assert np.isfinite(batched_ctc_loss(lp, np.array([2, 3]), targets, np.array([1, 2])).item())
    with pytest.raises(NumericsError, match="CTC row 0: frame rows"):
        batched_ctc_loss(lp, np.array([3, 3]), targets, np.array([1, 2]))
    with pytest.raises(NumericsError, match="CTC row 0: target ids"):
        batched_ctc_loss(lp, np.array([2, 3]), targets, np.array([2, 2]))
