import contextlib
import tracemalloc

import numpy as np
import pytest

from deskst import layers, tensor as tz
from deskst.layers import (
    AttentionParams,
    EncoderStates,
    LstmParams,
    SmoothingClampWarning,
    additive_attention,
    dropout,
    greedy_rollout,
    label_smoothed_ce,
    lstm_sequence,
    lstm_step,
    max_pool_time,
    output_layer,
    teacher_forced_decoder,
)
from deskst.numerics import ParamStore, backward
from deskst.tensor import NonFiniteError, NumericsError, ShapeError, Tensor

from util import check_grads, store_with


def lstm_params_from(store, prefix):
    return LstmParams(store[f"{prefix}.w_ih"], store[f"{prefix}.w_hh"], store[f"{prefix}.b"])


def random_lstm_store(seed, din, hidden, names=("cell",)):
    rng = np.random.default_rng(seed)
    arrays = {}
    for n in names:
        arrays[f"{n}.w_ih"] = rng.normal(size=(din, 4 * hidden)) * 0.4
        arrays[f"{n}.w_hh"] = rng.normal(size=(hidden, 4 * hidden)) * 0.4
        arrays[f"{n}.b"] = rng.normal(size=4 * hidden) * 0.1
    return store_with(**arrays)


# ---------------------------------------------------------------------------
# lstm_step
# ---------------------------------------------------------------------------


def test_lstm_step_all_zero():
    store = store_with(
        **{"c.w_ih": np.zeros((3, 8)), "c.w_hh": np.zeros((2, 8)), "c.b": np.zeros(8)}
    )
    p = lstm_params_from(store, "c")
    h, c = lstm_step(Tensor(np.zeros((1, 3))), (Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))), p)
    assert np.all(h.data == 0.0) and np.all(c.data == 0.0)


def test_lstm_step_zero_params_halves_cell():
    # sigmoid(0) = 0.5 gates: c' = 0.5 c0, h' = 0.5 tanh(0.5 c0)
    store = store_with(
        **{"c.w_ih": np.zeros((3, 8)), "c.w_hh": np.zeros((2, 8)), "c.b": np.zeros(8)}
    )
    p = lstm_params_from(store, "c")
    c0 = np.array([[0.8, -1.2]])
    h, c = lstm_step(Tensor(np.zeros((1, 3))), (Tensor(np.zeros((1, 2))), Tensor(c0)), p)
    assert c.data == pytest.approx(0.5 * c0)
    assert h.data == pytest.approx(0.5 * np.tanh(0.5 * c0))


def test_lstm_step_gradients():
    store = random_lstm_store(0, 3, 4)
    x = np.random.default_rng(1).normal(size=(2, 3))

    def loss():
        p = lstm_params_from(store, "cell")
        h = Tensor(np.zeros((2, 4)))
        c = Tensor(np.zeros((2, 4)))
        h, c = lstm_step(Tensor(x), (h, c), p)
        h, c = lstm_step(Tensor(x), (h, c), p)
        return tz.tsum(h * h) + tz.tsum(c)

    check_grads(loss, store)


def test_lstm_step_shape_mismatch():
    store = random_lstm_store(0, 3, 4)
    p = lstm_params_from(store, "cell")
    with pytest.raises(ShapeError):
        lstm_step(Tensor(np.zeros((1, 5))), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), p)


# ---------------------------------------------------------------------------
# lstm_sequence / blstm
# ---------------------------------------------------------------------------


def masked_lstm_pass(xs, lengths, params, reverse=False):
    """One LSTM direction as a masked loop over every padded step: the
    per-direction fused op that ``lstm_sequence`` replaced, kept as its
    oracle. Two passes, concatenated, are the BLSTM layer."""
    xs = tz.as_tensor(xs)
    B, T, _ = xs.shape
    H = params.hidden
    m = prefix_mask(lengths, T)
    xd = xs.data
    w_ih, w_hh, b = params.w_ih.data, params.w_hh.data, params.b.data

    order = range(T - 1, -1, -1) if reverse else range(T)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.zeros((B, T, H))
    cache = {}
    for t in order:
        z = xd[:, t] @ w_ih + h @ w_hh + b
        i = 1.0 / (1.0 + np.exp(-z[:, 0 * H : 1 * H]))
        f = 1.0 / (1.0 + np.exp(-z[:, 1 * H : 2 * H]))
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * H : 4 * H]))
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        mt = m[:, t : t + 1]
        cache[t] = (i, f, g, o, c, tc, h)
        out[:, t] = mt * (o * tc)
        h = mt * (o * tc) + (1.0 - mt) * h
        c = mt * c_new + (1.0 - mt) * c

    def backward(gout):
        dW_ih = np.zeros_like(w_ih)
        dW_hh = np.zeros_like(w_hh)
        db = np.zeros_like(b)
        dxs = np.zeros_like(xd)
        dh = np.zeros((B, H))
        dc = np.zeros((B, H))
        for t in reversed(list(order)):
            i, f, g, o, c_prev, tc, h_prev = cache[t]
            mt = m[:, t : t + 1]
            dh_new = mt * (gout[:, t] + dh)
            dh_skip = (1.0 - mt) * dh
            dc_new = mt * dc
            dc_skip = (1.0 - mt) * dc
            do = dh_new * tc
            dc_total = dc_new + dh_new * o * (1.0 - tc * tc)
            di = dc_total * g
            dg = dc_total * i
            df = dc_total * c_prev
            dc = dc_total * f + dc_skip
            dz = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
                axis=1,
            )
            dW_ih += xd[:, t].T @ dz
            dW_hh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dxs[:, t] = dz @ w_ih.T
            dh = dz @ w_hh.T + dh_skip
        return dxs, dW_ih, dW_hh, db

    return tz._node(out, (xs, params.w_ih, params.w_hh, params.b), backward)


def two_pass_blstm(xs, lengths, fwd, bwd):
    return tz.concat([masked_lstm_pass(xs, lengths, fwd), masked_lstm_pass(xs, lengths, bwd, reverse=True)], axis=-1)


def blstm_store(seed, batch, steps, din, hidden):
    """Both directions' weights and a random input, padded frames included."""
    store = random_lstm_store(seed, din, hidden, names=("f", "b"))
    store.create("xs", (batch, steps, din), "zeros")
    store.set("xs", np.random.default_rng([seed, 1]).normal(size=(batch, steps, din)))
    return store


def run_blstm(store, lengths, layer=lstm_sequence):
    return layer(store["xs"], lengths, lstm_params_from(store, "f"), lstm_params_from(store, "b"))


def prefix_mask(lengths, steps):
    return (np.arange(steps) < np.asarray(lengths)[:, None]).astype(np.float64)


def assert_close_to_scale(actual, expected, rel):
    """Entries agree to ``rel`` times the largest magnitude in ``expected``."""
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(actual - expected).max(initial=0.0) <= rel * scale


def test_lstm_sequence_matches_stepwise():
    store = random_lstm_store(2, 3, 5, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    xs = np.random.default_rng(3).normal(size=(2, 4, 3))
    seq = lstm_sequence(Tensor(xs), np.array([4, 4]), fwd, bwd)
    for params, steps, half in ((fwd, range(4), slice(None, 5)), (bwd, range(3, -1, -1), slice(5, None))):
        h, c = Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))
        for t in steps:
            h, c = lstm_step(Tensor(xs[:, t]), (h, c), params)
            assert seq.data[:, t, half] == pytest.approx(h.data, abs=1e-12)


def test_lstm_sequence_padding_is_noop():
    store = random_lstm_store(4, 3, 5, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(1, 3, 3))
    full = lstm_sequence(Tensor(xs), np.array([3]), fwd, bwd)
    padded_input = np.concatenate([xs, rng.normal(size=(1, 2, 3))], axis=1)
    padded = lstm_sequence(Tensor(padded_input), np.array([3]), fwd, bwd)
    # the forward half, and the backward half, whose state must stay zero
    # until it enters the valid region
    assert padded.data[:, :3, :5] == pytest.approx(full.data[..., :5], abs=0)
    assert padded.data[:, :3, 5:] == pytest.approx(full.data[..., 5:], abs=0)
    assert np.all(padded.data[:, 3:] == 0.0)


def test_lstm_sequence_gradients_with_mask_and_reverse():
    # Rows padded by different amounts, so both directions cross padding;
    # the input is in the store, so its gradient is checked too.
    store = blstm_store(6, 3, 4, 2, 3)
    lengths = np.array([3, 4, 1])
    weights = np.random.default_rng(7).normal(size=(3, 4, 6))

    def loss():
        out = run_blstm(store, lengths)
        return tz.tsum(out * weights) + tz.tsum(out[..., 3:] * out[..., 3:])

    check_grads(loss, store)


def test_lstm_sequence_input_gradient():
    store = random_lstm_store(8, 2, 3, names=("f", "b"))
    xs_store = store_with(xs=np.random.default_rng(9).normal(size=(1, 3, 2)))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    check_grads(lambda: tz.tsum(lstm_sequence(xs_store["xs"], np.array([3]), fwd, bwd)), xs_store)


def test_lstm_sequence_plain_array_input_gets_no_gradient():
    # The same layer on Tensor(xs) and on xs itself: the parameter gradients
    # agree bit for bit, and the plain array's gradient is None.
    store = blstm_store(15, 3, 4, 2, 3)
    lengths = np.array([4, 2, 3])
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    outs = [lstm_sequence(xs, lengths, fwd, bwd) for xs in (store["xs"], store["xs"].data)]
    assert outs[0].data.tobytes() == outs[1].data.tobytes()
    gout = np.random.default_rng(16).normal(size=outs[0].shape)
    with_input, without = (out.backward(gout) for out in outs)
    assert with_input[0] is not None and without[0] is None
    for a, b in zip(with_input[1:], without[1:]):
        assert a.tobytes() == b.tobytes()


# (batch, steps, input dim, hidden, lengths)
ORACLE_CASES = {
    "unsorted_lengths_with_ties": (5, 6, 3, 4, [4, 6, 2, 6, 4]),
    "batch_of_one": (1, 5, 2, 3, [5]),
    "one_step": (3, 1, 4, 2, [1, 0, 1]),
    "input_wider_than_hidden": (2, 3, 7, 2, [3, 2]),
    "zero_length_row": (3, 4, 3, 3, [0, 4, 3]),
    "every_row_empty": (2, 3, 2, 2, [0, 0]),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_lstm_sequence_matches_two_pass_oracle(case):
    batch, steps, din, hidden, lengths = ORACLE_CASES[case]
    store = blstm_store(10, batch, steps, din, hidden)
    mask = prefix_mask(lengths, steps)
    gout = np.random.default_rng(11).normal(size=(batch, steps, 2 * hidden))
    results = []
    for layer in (lstm_sequence, two_pass_blstm):
        out = run_blstm(store, np.array(lengths), layer)
        results.append((out.data, backward(tz.tsum(out * gout), store)))
    (out, grads), (want, want_grads) = results
    assert_close_to_scale(out, want, 1e-14)
    for name, g in want_grads.items():
        assert_close_to_scale(grads[name], g, 1e-12)
    empty = np.asarray(lengths) == 0
    assert not out[empty].any() and not grads["xs"][empty].any()
    assert not out[mask == 0].any() and not grads["xs"][mask == 0].any()


def desk_lengths(batch, steps, seed):
    """Length patterns for ``batch`` rows: a unique longest row, whose last
    steps run one row; a zero-length row; every row but one empty."""
    rng = np.random.default_rng(seed)
    ragged = rng.integers(1, steps - 2, size=batch)
    ragged[0] = steps
    with_empty = rng.integers(1, steps + 1, size=batch)
    with_empty[-1] = 0
    one_left = np.zeros(batch, dtype=np.int64)
    one_left[batch // 2] = steps
    return ragged, with_empty, one_left


def test_lstm_sequence_no_grad_is_parentless_with_same_value():
    # The small case, then desk sizes (H = 64): under no_grad the input
    # projection runs per step, and the output must still be byte-identical.
    cases = [(blstm_store(12, 3, 5, 2, 3), np.array([2, 5, 4]))]
    for din in (12, 128):
        for batch in (1, 2, 32):
            store = blstm_store(din + batch, batch, 9, din, 64)
            cases += [(store, lengths) for lengths in desk_lengths(batch, 9, din * batch)]
    for store, lengths in cases:
        out = run_blstm(store, lengths)
        assert out.parents
        with tz.no_grad():
            plain = run_blstm(store, lengths)
        assert plain.parents == () and plain.backward is None
        assert plain.data.tobytes() == out.data.tobytes(), lengths


def test_lstm_sequence_under_no_grad_keeps_no_backward_buffers():
    # Recording keeps (N, 2, 4H) gates and (N, 2, H) cell states, 5x the
    # output's packed rows; under no_grad the call peaks at the output and
    # a few steps' buffers.
    store = blstm_store(18, 32, 52, 12, 64)
    lengths = np.array([52, 40] * 16)
    xs = store["xs"].data
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    tracemalloc.start()
    try:
        with tz.no_grad():
            out = lstm_sequence(xs, lengths, fwd, bwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.data.nbytes, peak / out.data.nbytes


@pytest.mark.parametrize("inner", [12, 64, 128, 160])
def test_a_gemm_rows_bits_do_not_depend_on_its_row_count_at_desk_columns(inner):
    """The rule row packing and the no_grad input projection rest on: at the
    desk column counts (4H = 256, A = 64, V = 16) a GEMM row's bits are the
    same whether the call has 2 or 64 rows. A one-row product is not a GEMM
    (numpy sends it to gemv, whose bits differ), so the ops never make one
    where a larger batch would not. The rule does not hold at every column
    count: under OpenBLAS 0.3.31 (Haswell kernel) the tests' V = 9 output
    layer's rows depend on the row count when it is not a multiple of 4."""
    rng = np.random.default_rng(inner)
    a = rng.normal(size=(64, inner))
    for cols in (256, 64, 16):
        w = rng.normal(size=(inner, cols))
        full = a @ w
        for rows in range(2, 65):
            assert (a[:rows] @ w).tobytes() == full[:rows].tobytes(), (cols, rows)


@pytest.mark.parametrize(
    "lengths",
    [
        pytest.param([[3, 3], [3, 3]], id="wrong_shape"),
        pytest.param([-1, 3], id="negative"),
        pytest.param([3, 4], id="beyond_T"),
        pytest.param([3.0, 2.0], id="not_integers"),
    ],
)
def test_lstm_sequence_rejects_lengths_outside_0_to_T(lengths):
    store = blstm_store(13, 2, 3, 2, 3)
    with pytest.raises(ShapeError):
        run_blstm(store, np.array(lengths))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["xs", "f.w_ih", "f.w_hh", "f.b", "b.w_ih", "b.w_hh", "b.b"])
def test_lstm_sequence_rejects_non_finite_input(name, bad):
    # flat[-1] of xs is a padded frame, which the op never reads
    store = blstm_store(14, 2, 3, 2, 3)
    store[name].data.flat[-1] = bad
    with pytest.raises(NonFiniteError, match="non-finite input to lstm_sequence"):
        run_blstm(store, np.array([3, 1]))


def test_lstm_sequence_rejects_weights_that_do_not_fit():
    store = blstm_store(16, 2, 3, 2, 3)
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    lengths = np.array([3, 2])
    with pytest.raises(ShapeError):  # input dim 3 against weights for 2
        lstm_sequence(Tensor(np.zeros((2, 3, 3))), lengths, fwd, bwd)
    with pytest.raises(ShapeError):  # directions of different widths
        lstm_sequence(store["xs"], lengths, fwd, lstm_params_from(random_lstm_store(17, 2, 2), "cell"))


def test_blstm_single_step_is_two_cells():
    store = random_lstm_store(10, 3, 4, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    x = np.random.default_rng(11).normal(size=(1, 1, 3))
    out = lstm_sequence(Tensor(x), np.array([1]), fwd, bwd)
    hf, _ = lstm_step(Tensor(x[:, 0]), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), fwd)
    hb, _ = lstm_step(Tensor(x[:, 0]), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), bwd)
    assert out.data[0, 0] == pytest.approx(np.concatenate([hf.data[0], hb.data[0]]))


def test_blstm_direction_swap_symmetry():
    # Reversing the input and swapping direction params reverses the output
    # sequence with the two halves swapped.
    store = random_lstm_store(12, 3, 4, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    xs = np.random.default_rng(13).normal(size=(1, 5, 3))
    lengths = np.array([5])
    out = lstm_sequence(Tensor(xs), lengths, fwd, bwd)
    out_swapped = lstm_sequence(Tensor(xs[:, ::-1].copy()), lengths, bwd, fwd)
    H = 4
    assert out_swapped.data[:, ::-1, :H] == pytest.approx(out.data[:, :, H:], abs=1e-12)
    assert out_swapped.data[:, ::-1, H:] == pytest.approx(out.data[:, :, :H], abs=1e-12)


def test_blstm_empty_sequence_rejected():
    store = random_lstm_store(14, 3, 4, names=("f", "b"))
    with pytest.raises(ShapeError):
        lstm_sequence(Tensor(np.zeros((1, 0, 3))), np.array([0]), lstm_params_from(store, "f"), lstm_params_from(store, "b"))


# ---------------------------------------------------------------------------
# max_pool_time
# ---------------------------------------------------------------------------


def test_pool_scalars():
    xs = Tensor(np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1))
    out, lengths = max_pool_time(xs, np.array([4]), 2)
    assert out.data.reshape(-1).tolist() == [3.0, 5.0]
    assert lengths.tolist() == [2]


def test_pool_t16_three_pools_gives_2():
    xs = Tensor(np.random.default_rng(0).normal(size=(1, 16, 2)))
    lengths = np.array([16])
    for _ in range(3):
        xs, lengths = max_pool_time(xs, lengths, 2)
    assert xs.shape[1] == 2
    assert lengths.sum() == 2


def test_pool_odd_tail_forms_own_window():
    xs = Tensor(np.arange(5.0).reshape(1, 5, 1))
    out, lengths = max_pool_time(xs, np.array([5]), 2)
    assert out.shape[1] == 3
    assert out.data.reshape(-1).tolist() == [1.0, 3.0, 4.0]


def test_pool_ceil_chain_matches_formula():
    for T in [1, 2, 5, 8, 9, 16, 23]:
        xs = Tensor(np.zeros((1, T, 1)))
        lengths = np.array([T])
        expect = T
        for _ in range(3):
            xs, lengths = max_pool_time(xs, lengths, 2)
            expect = -(-expect // 2)
        assert xs.shape[1] == expect
        if T % 8 == 0:
            assert xs.shape[1] == T // 8


def test_pool_idempotent_on_constant_and_commutes_with_monotone():
    xs = np.full((1, 6, 3), 2.5)
    once, _ = max_pool_time(Tensor(xs), np.array([6]), 2)
    assert np.all(once.data == 2.5)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(2, 7, 3))
    lengths = np.array([7, 5])
    pooled_then_map, _ = max_pool_time(Tensor(np.exp(raw)), lengths, 2)
    mapped_then_pool, pl = max_pool_time(Tensor(raw), lengths, 2)
    pm = prefix_mask(pl, mapped_then_pool.shape[1])
    assert pooled_then_map.data == pytest.approx(np.exp(mapped_then_pool.data) * pm[:, :, None], abs=1e-12)


def test_pool_respects_padding_with_negative_values():
    # all-negative valid frames must not lose the max to zero padding
    xs = np.full((1, 3, 2), -4.0)
    padded = np.concatenate([xs, np.zeros((1, 1, 2))], axis=1)
    out, lengths = max_pool_time(Tensor(padded), np.array([3]), 2)
    assert np.all(out.data == -4.0)
    assert lengths.tolist() == [2]


def test_pool_gradients():
    rng = np.random.default_rng(2)
    store = store_with(xs=rng.normal(size=(2, 5, 3)))
    lengths = np.array([5, 3])

    def loss():
        out, _ = max_pool_time(store["xs"], lengths, 2)
        return tz.tsum(out * rng_weights)

    rng_weights = rng.normal(size=(2, 3, 3))
    check_grads(loss, store)


def reference_max_pool_time(xs, lengths, pool):
    """The argmax formulation: pads shifted down by 1e300, one strided
    argmax per window and a put_along_axis backward; the oracle for
    ``max_pool_time``. Its pooled lengths count the windows that hold a
    valid frame."""
    xs = tz.as_tensor(xs)
    B, T, D = xs.shape
    if pool <= 1:
        return xs, lengths
    T2 = -(-T // pool)
    pad = T2 * pool - T
    mp = np.pad(prefix_mask(lengths, T), ((0, 0), (0, pad)))
    xp = np.pad(xs.data, ((0, 0), (0, pad), (0, 0)))
    shifted = xp + (mp[:, :, None] - 1.0) * 1e300
    arg = shifted.reshape(B, T2, pool, D).argmax(axis=2)
    vals = np.take_along_axis(xp.reshape(B, T2, pool, D), arg[:, :, None, :], axis=2)[:, :, 0, :]
    pooled_mask = (mp.reshape(B, T2, pool).max(axis=2) > 0).astype(np.float64)

    def backward(g):
        gw = np.zeros((B, T2, pool, D))
        np.put_along_axis(gw, arg[:, :, None, :], (g * pooled_mask[:, :, None])[:, :, None, :], axis=2)
        return (gw.reshape(B, T2 * pool, D)[:, :T, :],)

    return tz._node(vals * pooled_mask[:, :, None], (xs,), backward), pooled_mask.sum(axis=1).astype(np.int64)


def pool_case(name):
    """(input (B, T, D), lengths, pool) for the oracle comparison."""
    rng = np.random.default_rng(12)
    if name == "ties_inside_a_window":  # equal maxima, signed zeros included
        xs = rng.integers(-2, 3, size=(2, 6, 4)).astype(np.float64)
        xs[0, 0, 0], xs[0, 1, 0] = -0.0, 0.0
        return xs, np.array([6, 6]), 2
    if name == "trailing_partial_window":
        return rng.normal(size=(3, 7, 3)), np.array([7, 5, 4]), 3
    if name == "fully_padded_window":  # padded frames hold junk, some negative
        return rng.normal(size=(2, 8, 3)), np.array([8, 3]), 2
    if name == "ragged_pool_3":
        return rng.normal(size=(4, 10, 5)), np.array([10, 1, 6, 8]), 3
    return rng.normal(size=(2, 4, 3)), np.array([4, 2]), 1  # pool_1


def backward_graph_grad(out, g, x):
    """Gradient on ``x`` of sum(out * g), through the recorded graph."""
    return tz.backward_graph(tz.tsum(out * g))[id(x)] if out is not x else g


@pytest.mark.parametrize(
    "name", ["ties_inside_a_window", "trailing_partial_window", "fully_padded_window", "ragged_pool_3", "pool_1"]
)
def test_pool_is_bit_identical_to_the_argmax_oracle(name):
    xs, lengths, pool = pool_case(name)
    g = np.random.default_rng(13).normal(size=(xs.shape[0], -(-xs.shape[1] // pool), xs.shape[2]))
    results = []
    for layer in (max_pool_time, reference_max_pool_time):
        x = Tensor(xs)
        out, pooled_lengths = layer(x, lengths, pool)
        results.append((out.data, pooled_lengths, backward_graph_grad(out, g, x)))
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


# ---------------------------------------------------------------------------
# additive attention
# ---------------------------------------------------------------------------


def attention_store(seed, dec, mem, att):
    rng = np.random.default_rng(seed)
    return store_with(
        w_query=rng.normal(size=(dec, att)) * 0.5,
        w_keys=rng.normal(size=(mem, att)) * 0.5,
        v=rng.normal(size=att),
        b=rng.normal(size=att) * 0.1,
        u=rng.normal(size=att) * 0.1,
    )


def attention_params(store):
    return AttentionParams(store["w_query"], store["w_keys"], store["v"], store["b"], store["u"])


def test_attention_uniform_when_energies_equal():
    store = store_with(
        w_query=np.zeros((3, 4)), w_keys=np.zeros((5, 4)), v=np.zeros(4), b=np.zeros(4), u=np.zeros(4)
    )
    enc = EncoderStates(Tensor(np.random.default_rng(0).normal(size=(1, 6, 5))), np.array([6]))
    att = additive_attention(Tensor(np.zeros((1, 3))), enc, Tensor(np.zeros((1, 6))), attention_params(store))
    assert att.weights.data == pytest.approx(np.full((1, 6), 1 / 6))


def test_attention_single_position():
    store = attention_store(1, 3, 5, 4)
    enc_states = np.random.default_rng(2).normal(size=(1, 1, 5))
    enc = EncoderStates(Tensor(enc_states), np.array([1]))
    att = additive_attention(Tensor(np.zeros((1, 3))), enc, Tensor(np.zeros((1, 1))), attention_params(store))
    np.testing.assert_allclose(att.weights.data, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(att.context.data, enc_states[:, 0], atol=1e-12)


def test_attention_feedback_accumulates_weights():
    store = attention_store(3, 3, 5, 4)
    rng = np.random.default_rng(4)
    enc = EncoderStates(Tensor(rng.normal(size=(2, 4, 5))), np.array([4, 4]))
    fb = Tensor(np.zeros((2, 4)))
    total = np.zeros((2, 4))
    for _ in range(3):
        att = additive_attention(Tensor(rng.normal(size=(2, 3))), enc, fb, attention_params(store))
        total = total + att.weights.data
        fb = att.feedback
        assert att.weights.data.sum(axis=-1) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert np.all(att.weights.data >= 0.0)
    assert fb.data == pytest.approx(total, abs=1e-12)


def test_attention_gradients():
    store = attention_store(5, 3, 4, 3)
    rng = np.random.default_rng(6)
    enc_data = rng.normal(size=(2, 3, 4))
    lengths = np.array([2, 3])
    s_prev = rng.normal(size=(2, 3))
    fb0 = rng.random((2, 3))

    def loss():
        enc = EncoderStates(Tensor(enc_data), lengths)
        att = additive_attention(Tensor(s_prev), enc, Tensor(fb0), attention_params(store))
        att2 = additive_attention(Tensor(s_prev), enc, att.feedback, attention_params(store))
        return tz.tsum(att.context * att2.context) + tz.tsum(att2.weights * np.arange(3.0))

    check_grads(loss, store)


# ---------------------------------------------------------------------------
# output layer / label smoothing / dropout / embed
# ---------------------------------------------------------------------------


def test_output_layer_uniform_for_zero_params():
    w = Tensor(np.zeros((8, 5)))
    b = Tensor(np.zeros(5))
    rng = np.random.default_rng(0)
    probs = output_layer(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 3))), w, b)
    assert probs.data == pytest.approx(np.full((2, 5), 0.2))


def test_output_layer_normalized_and_grads():
    rng = np.random.default_rng(1)
    store = store_with(w=rng.normal(size=(8, 5)) * 0.5, b=rng.normal(size=5) * 0.1)
    e = rng.normal(size=(2, 3))
    s = rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 3))
    probs = output_layer(Tensor(e), Tensor(s), Tensor(c), store["w"], store["b"])
    assert probs.data.sum(axis=-1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.all(probs.data > 0.0)
    check_grads(
        lambda: tz.tsum(tz.safe_log(output_layer(Tensor(e), Tensor(s), Tensor(c), store["w"], store["b"])) * rng_w),
        store,
    )


rng_w = np.random.default_rng(2).normal(size=(2, 5))


def test_label_smoothed_ce_eps_zero_is_plain_ce():
    pred = Tensor(np.array([0.7, 0.1, 0.1, 0.1]))
    loss = label_smoothed_ce(pred, 0, 0.0)
    assert loss.item() == pytest.approx(-np.log(0.7))


def test_label_smoothed_ce_uniform_pred_gives_log_v():
    V = 6
    pred = Tensor(np.full(V, 1.0 / V))
    for eps in [0.0, 0.1, 0.5]:
        assert label_smoothed_ce(pred, 3, eps).item() == pytest.approx(np.log(V))


def test_label_smoothed_ce_worked_example():
    pred = Tensor(np.array([0.7, 0.1, 0.1, 0.1]))
    loss = label_smoothed_ce(pred, 0, 0.1)
    expected = -(0.925 * np.log(0.7) + 3 * 0.025 * np.log(0.1))
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_label_smoothed_ce_clamps_zero_probability():
    pred = Tensor(np.array([1.0, 0.0, 0.0]))
    with pytest.warns(SmoothingClampWarning):
        loss = label_smoothed_ce(pred, 0, 0.1)
    assert np.isfinite(loss.item())


def test_label_smoothing_invalid_ratio():
    with pytest.raises(ValueError):
        label_smoothed_ce(Tensor(np.full(4, 0.25)), 0, 1.0)


# ---------------------------------------------------------------------------
# fused teacher-forced decoder (the step-by-step oracle is in test_models.py)
# ---------------------------------------------------------------------------

# Two memories with padded positions; (B, J) targets with padded positions,
# so the second row stops (at [EOS], id 4) while the first runs on.
DEC_MEMORY_LENGTHS = (np.array([4, 2]), np.array([2, 3]))
DEC_TARGETS = np.array([[1, 3, 2], [2, 1, 1]])
DEC_LENGTHS = np.array([3, 1])


def decoder_store(seed, layers=2, E=3, H=4, A=3, V=5, mem_dims=(3, 2)):
    rng = np.random.default_rng(seed)
    arrays = {
        "emb": rng.normal(size=(V, E)) * 0.5,
        "out_w": rng.normal(size=(E + H + sum(mem_dims), V)) * 0.5,
        "out_b": rng.normal(size=V) * 0.1,
    }
    for j in range(layers):
        d_in = E + sum(mem_dims) if j == 0 else H
        arrays[f"l{j}.w_ih"] = rng.normal(size=(d_in, 4 * H)) * 0.4
        arrays[f"l{j}.w_hh"] = rng.normal(size=(H, 4 * H)) * 0.4
        arrays[f"l{j}.b"] = rng.normal(size=4 * H) * 0.1
    for k, (lengths, d) in enumerate(zip(DEC_MEMORY_LENGTHS, mem_dims)):
        arrays[f"m{k}.states"] = rng.normal(size=(len(lengths), lengths.max(), d))
        arrays[f"a{k}.w_query"] = rng.normal(size=(H, A)) * 0.5
        arrays[f"a{k}.w_keys"] = rng.normal(size=(d, A)) * 0.5
        arrays[f"a{k}.v"] = rng.normal(size=A)
        arrays[f"a{k}.b"] = rng.normal(size=A) * 0.1
        arrays[f"a{k}.u"] = rng.normal(size=A) * 0.5
    return store_with(**arrays)


def decoder_inputs(store, layers=2):
    """(memories, embedding, LSTM stack, output weight, output bias) of a ``decoder_store``."""
    memories = [
        (
            EncoderStates(store[f"m{k}.states"], lengths),
            AttentionParams(*(store[f"a{k}.{n}"] for n in ("w_query", "w_keys", "v", "b", "u"))),
        )
        for k, lengths in enumerate(DEC_MEMORY_LENGTHS)
    ]
    cells = [lstm_params_from(store, f"l{j}") for j in range(layers)]
    return memories, store["emb"], cells, store["out_w"], store["out_b"]


def run_decoder(store, eps=0.1, layers=2):
    return teacher_forced_decoder(*decoder_inputs(store, layers), DEC_TARGETS, DEC_LENGTHS, 0, 4, eps)


def test_greedy_rollout_rejects_non_finite_probabilities(monkeypatch):
    predict = layers.DecoderKernel.predict

    def poisoned(self, *args, **kwargs):
        probs = predict(self, *args, **kwargs)
        probs[0, -1] = np.nan
        return probs

    monkeypatch.setattr(layers.DecoderKernel, "predict", poisoned)
    with pytest.raises(NonFiniteError, match="non-finite output probabilities in the greedy rollout"):
        run_rollout(decoder_inputs(decoder_store(5)), np.array([3, 2]))


def test_greedy_rollout_needs_a_row_that_runs_a_step():
    with pytest.raises(ShapeError, match="^greedy rollout: no row may run a step"):
        run_rollout(decoder_inputs(decoder_store(5)), np.array([0, 0]))


def test_teacher_forced_decoder_gradients():
    store = decoder_store(0)
    check_grads(lambda: run_decoder(store)[0], store)


def test_teacher_forced_decoder_clamp_warns_and_passes_no_gradient():
    store = decoder_store(1)
    out_b = store["out_b"].data.copy()
    out_b[3] = -2000.0  # exp underflows: probability exactly 0 for id 3
    store.set("out_b", out_b)
    with pytest.warns(SmoothingClampWarning):
        loss, _ = run_decoder(store)
    assert np.isfinite(loss.item())
    grads = backward(loss, store)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert grads["out_b"][3] == 0.0 and not grads["out_w"][:, 3].any()
    assert np.abs(grads["out_b"]).max() > 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["a0.w_keys", "l1.w_hh", "emb", "out_b", "m1.states"])
def test_teacher_forced_decoder_rejects_poisoned_input(name, bad):
    store = decoder_store(2)
    store[name].data.flat[0] = bad
    with pytest.raises(NonFiniteError, match="non-finite input to the decoder step"):
        run_decoder(store)


def test_teacher_forced_decoder_no_grad_is_parentless_with_same_value():
    store = decoder_store(3)
    loss, hits = run_decoder(store)
    assert loss.parents
    with tz.no_grad():
        plain, plain_hits = run_decoder(store)
    assert plain.parents == () and plain.backward is None
    assert plain.item() == loss.item()
    assert plain_hits == hits


def test_decoder_kernel_records_its_steps_when_built_under_gradient_recording():
    store = decoder_store(4)
    B = DEC_TARGETS.shape[0]
    tokens = np.array([1, 2])
    for grad in (True, False):
        with contextlib.nullcontext() if grad else tz.no_grad():
            kernel = layers.DecoderKernel(*decoder_inputs(store))
        for _ in range(3):  # the steps run with gradients recorded either way
            kernel.predict(tokens)
            kernel.advance(tokens, np.ones(B))
        kernel.predict(tokens)
        assert (len(kernel.predictions), len(kernel.advances)) == ((4, 3) if grad else (0, 0))


def desk_decoder(seed, rows, mems=2, E=32, H=64, A=64, V=16, D=128, T=28):
    """Decoder weights at the desk sizes and a pool of ``rows`` memory rows;
    returns a function from a list of pool rows to the decoder's inputs over
    that batch (every batch padded to the same T)."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(mems, rows, T, D))
    lengths = rng.integers(T // 2, T + 1, size=(mems, rows))
    attn = [
        AttentionParams(*(Tensor(rng.normal(size=s) * 0.3) for s in ((H, A), (D, A), (A,), (A,), (A,))))
        for _ in range(mems)
    ]
    emb = Tensor(rng.normal(size=(V, E)))
    cell = LstmParams(*(Tensor(rng.normal(size=s) * 0.1) for s in ((E + mems * D, 4 * H), (H, 4 * H), (4 * H,))))
    out_w, out_b = Tensor(rng.normal(size=(E + H + mems * D, V)) * 0.3), Tensor(rng.normal(size=V) * 0.1)

    def inputs(batch):
        memories = [(EncoderStates(Tensor(states[k, batch]), lengths[k, batch]), attn[k]) for k in range(mems)]
        return memories, emb, [cell], out_w, out_b

    return inputs


def run_rollout(inputs, limits):
    return greedy_rollout(*inputs, limits, 1, 2, 0)


@pytest.mark.parametrize("op", ["lstm_sequence", "teacher_forced_decoder", "greedy_rollout"])
def test_fused_op_backward_runs_once(op):
    # The first backward frees the record the second would read.
    if op == "lstm_sequence":
        out = run_blstm(blstm_store(15, 2, 3, 2, 3), np.array([3, 2]))
    elif op == "teacher_forced_decoder":
        out = run_decoder(decoder_store(5))[0]
    else:
        out = run_rollout(decoder_inputs(decoder_store(5)), np.array([3, 2]))[0]
    loss = tz.tsum(out)
    tz.backward_graph(loss)
    with pytest.raises(NumericsError):
        tz.backward_graph(loss)


def recorded_bytes(op, monkeypatch):
    """Run ``op`` at desk sizes while recording; return its graph node and a
    function giving the bytes of the buffers only its backward reads: the
    kernel's pre-activations for a fused decoder, the gates and cell states
    for ``lstm_sequence``."""
    if op == "lstm_sequence":
        store = blstm_store(19, 16, 49, 12, 64)
        lengths = np.array([49, 40, 31, 24] * 4)
        return run_blstm(store, lengths), lambda: lengths.sum() * 2 * (4 + 1) * 64 * 8
    kernels, init = [], layers.DecoderKernel.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    monkeypatch.setattr(layers.DecoderKernel, "__init__", kept)
    inputs = desk_decoder(20, 16)(list(range(16)))
    if op == "teacher_forced_decoder":
        rng = np.random.default_rng(21)
        node = teacher_forced_decoder(*inputs, rng.integers(3, 16, size=(16, 8)), rng.integers(1, 9, size=16), 1, 2, 0.1)[0]
    else:
        node = run_rollout(inputs, np.arange(16) % 8 + 1)[0]
    return node, lambda: sum(pre.nbytes for _, _, attn in kernels[0].predictions for pre, _, _ in attn)


def traced_backward(op, monkeypatch):
    """Differentiate ``op``'s node (see ``recorded_bytes``) by backward_graph
    under tracemalloc. Returns the bytes of its record and, for the op's
    backward, the traced (level at entry, peak during it, level on return,
    bytes of the gradients it returns)."""
    seen = []
    tracemalloc.start()
    try:
        node, record = recorded_bytes(op, monkeypatch)
        needed, run = record(), node.backward

        def measured(g):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = run(g)
            returned = sum(grad.nbytes for grad in grads if grad is not None)
            seen.append((entry, *tracemalloc.get_traced_memory()[::-1], returned))
            return grads

        node.backward = measured
        tz.backward_graph(tz.tsum(node))
    finally:
        tracemalloc.stop()
    return needed, seen[0]


@pytest.mark.parametrize("op", ["lstm_sequence", "teacher_forced_decoder", "greedy_rollout"])
def test_fused_op_frees_its_record_when_its_backward_returns(op, monkeypatch):
    # Inside backward_graph, traced memory falls across the op's backward by
    # at least the record it no longer needs, net of the gradients it returns.
    needed, (entry, _, after, returned) = traced_backward(op, monkeypatch)
    fall = entry - after + returned
    assert fall >= needed - 4096, (fall, needed)  # numpy caches a few freed small blocks


@pytest.mark.parametrize("op", ["teacher_forced_decoder", "greedy_rollout"])
def test_fused_decoder_backward_uses_up_its_record_one_step_at_a_time(op, monkeypatch):
    # Two memories at the desk sizes. The op's backward drops each step's
    # record once its loop has passed it and copies no whole record, so
    # above its level at entry, net of the gradients it returns, it peaks
    # under half the pre-activations it consumes. Holding the record to the
    # end and then concatenating it peaked at 1.4 to 1.6 times them.
    needed, (entry, peak, _, returned) = traced_backward(op, monkeypatch)
    assert peak - entry - returned < needed / 2, (peak - entry - returned, needed)


def test_a_decoder_rows_bits_do_not_depend_on_its_companions_at_desk_sizes():
    """The rule row packing rests on, for the decoders: at the desk sizes
    (H = 64, A = 64, V = 16) pool row 0 gives the same bytes whatever rows
    share its batch, first, last or in the middle of the packed order, as
    long as every product has at least two rows. Checked on its
    ``greedy_rollout`` states and tokens, and on the ``DecoderKernel.predict``
    probabilities of its lanes when each utterance has several lanes, as in
    beam search."""
    inputs = desk_decoder(22, 12)
    limits = np.array([6, 9, 2, 8, 3, 5, 7, 4, 6, 9, 1, 3])
    lanes_of = np.array([3, 2, 4, 1, 3, 2, 1, 4, 2, 3, 2, 1])  # row 0 has 3, so a step has 3 or more lanes
    seen = set()
    for batch in ([0, 10], [1, 9, 0], [2, 3, 0, 4, 5, 6, 7]):
        pos = batch.index(0)
        states, ran, tokens = run_rollout(inputs(batch), limits[batch])
        assert ran[pos] > 2
        rollout = (states.data[pos, : ran[pos]].tobytes(), tokens[pos, : ran[pos]].tobytes())
        with tz.no_grad():
            kernel = layers.DecoderKernel(*inputs(batch))
        B = len(batch)
        probs = [kernel.predict(np.ones(B, dtype=np.int64), (np.arange(B), np.zeros(B, dtype=np.int64)))]
        utt = np.repeat(np.arange(B), lanes_of[batch])
        slot = np.concatenate([np.arange(n) for n in lanes_of[batch]])
        lane_tokens = (np.array(batch)[utt] * 5 + slot * 3) % 16  # a lane's tokens depend on it alone
        kernel.advance(lane_tokens, rows=utt)
        for _ in range(2):
            probs.append(kernel.predict(lane_tokens, (utt, slot)))
            kernel.advance((lane_tokens + 1) % 16, rows=np.arange(len(utt)))
        mine = [probs[0][pos].tobytes(), *(p[utt == pos].tobytes() for p in probs[1:])]
        seen.add((rollout, *mine))
    assert len(seen) == 1


@pytest.mark.parametrize("mode", ["prefix", "lanes"])
def test_decoder_kernel_predict_is_the_tensor_step_bit_for_bit(mode, monkeypatch):
    """With non-zero feedback, u and top state at the desk sizes, one
    ``DecoderKernel.predict`` gives the bytes of ``additive_attention`` per
    memory and ``output_layer``: its probabilities, and the tanh
    pre-activations and weights it records. In prefix mode (the fused
    decoders) kernel row i is memory row order[i]; in lane mode (beam
    search) lane i reads memory row utt[i], one lane per utterance: the
    contexts of K > 1 lanes of an utterance are one K-row GEMM, whose bits
    are not those of the oracle's one-row products (module docstring)."""
    B = 6
    inputs = desk_decoder(23, B)(list(range(B)))
    memories, emb, _, out_w, out_b = inputs
    rng = np.random.default_rng(24)
    if mode == "prefix":
        order = rng.permutation(B)
        kernel, rows, lanes = layers.DecoderKernel(*inputs, order), order[:4], None
    else:
        utt = np.array([4, 1, 3, 0, 5])
        kernel, rows, lanes = layers.DecoderKernel(*inputs), utt, (utt, np.zeros(len(utt), dtype=np.int64))
    n = len(rows)
    top = rng.normal(size=(max(B, n), kernel.hidden))
    feedback = [rng.uniform(0.0, 2.0, size=(max(B, n), enc.states.shape[1])) for enc, _ in memories]
    assert all(np.abs(a.u.data).min() > 0 for _, a in memories)
    kernel.h[-1], kernel.feedback = top, list(feedback)
    prev = rng.integers(0, emb.shape[0], size=n)
    probs = kernel.predict(prev, lanes)

    pres, tanh = [], tz.tanh
    monkeypatch.setattr(tz, "tanh", lambda a: pres.append(tanh(a)) or pres[-1])
    s_prev, states = Tensor(top[:n]), []
    for (enc, params), fb in zip(memories, feedback):
        mem = EncoderStates(Tensor(enc.states.data[rows]), enc.lengths[rows])
        states.append(additive_attention(s_prev, mem, Tensor(fb[:n]), params))
    ctx = tz.concat([att.context for att in states], axis=-1)
    want = output_layer(tz.embedding(emb, prev), s_prev, ctx, out_w, out_b)

    assert probs.tobytes() == want.data.tobytes()
    recorded = kernel.predictions[-1][2]
    for (pre, w, fb), att, want_pre, given in zip(recorded, states, pres, feedback):
        assert pre.tobytes() == want_pre.data.tobytes()
        assert w.tobytes() == att.weights.data.tobytes()
        assert fb.tobytes() == given[:n].tobytes()


def test_dropout_identity_cases():
    x = Tensor(np.random.default_rng(0).normal(size=(10, 10)))
    rng = np.random.default_rng(1)
    assert np.array_equal(dropout(x, 0.0, rng).data, x.data)
    assert rng.random() == np.random.default_rng(1).random()  # nothing drawn


def test_dropout_zeroed_fraction_and_scaling():
    x = Tensor(np.ones((200, 100)))
    rng = np.random.default_rng(2)
    out = dropout(x, 0.3, rng)
    zero_frac = (out.data == 0.0).mean()
    assert abs(zero_frac - 0.3) < 0.05
    kept = out.data[out.data != 0.0]
    assert kept == pytest.approx(np.full_like(kept, 1.0 / 0.7))


def test_dropout_is_the_product_with_dropout_keep_bit_for_bit():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 5, 6)))
    rng, rng2 = np.random.default_rng(8), np.random.default_rng(8)
    out = dropout(x, 0.3, rng)
    keep = layers.dropout_keep(x.shape, 0.3, rng2)
    assert out.data.tobytes() == (x.data * keep).tobytes()
    assert out.parents == (x,)
    g = np.random.default_rng(4).normal(size=x.shape)
    assert out.backward(g)[0].tobytes() == (g * keep).tobytes()
    assert rng.random() == rng2.random()  # both streams end in the same state


def test_embed_identity_table_and_repeat():
    table = Tensor(np.eye(4))
    one_hot = tz.embedding(table, 2)
    assert np.array_equal(one_hot.data, np.eye(4)[2])
    twice = tz.embedding(table, np.array([1, 1]))
    assert np.array_equal(twice.data[0], twice.data[1])
