import numpy as np
import pytest

from deskst import layers, tensor as tz
from deskst.layers import (
    AttentionParams,
    EncoderStates,
    LstmParams,
    SmoothingClampWarning,
    additive_attention,
    blstm,
    dropout,
    embed,
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


def masked_lstm_pass(xs, mask, params, reverse=False):
    """One LSTM direction as a masked loop over every padded step: the
    per-direction fused op that ``lstm_sequence`` replaced, kept as its
    oracle. Two passes, concatenated, are the BLSTM layer."""
    xs = tz.as_tensor(xs)
    B, T, _ = xs.shape
    H = params.hidden
    m = np.asarray(mask, dtype=np.float64)
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


def two_pass_blstm(xs, mask, fwd, bwd):
    return tz.concat([masked_lstm_pass(xs, mask, fwd), masked_lstm_pass(xs, mask, bwd, reverse=True)], axis=-1)


def blstm_store(seed, batch, steps, din, hidden):
    """Both directions' weights and a random input, padded frames included."""
    store = random_lstm_store(seed, din, hidden, names=("f", "b"))
    store.create("xs", (batch, steps, din), "zeros")
    store.set("xs", np.random.default_rng([seed, 1]).normal(size=(batch, steps, din)))
    return store


def run_blstm(store, mask, layer=blstm):
    return layer(store["xs"], mask, lstm_params_from(store, "f"), lstm_params_from(store, "b"))


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
    seq = lstm_sequence(Tensor(xs), np.ones((2, 4)), fwd, bwd)
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
    full = lstm_sequence(Tensor(xs), np.ones((1, 3)), fwd, bwd)
    padded_input = np.concatenate([xs, rng.normal(size=(1, 2, 3))], axis=1)
    padded = lstm_sequence(Tensor(padded_input), prefix_mask([3], 5), fwd, bwd)
    # the forward half, and the backward half, whose state must stay zero
    # until it enters the valid region
    assert padded.data[:, :3, :5] == pytest.approx(full.data[..., :5], abs=0)
    assert padded.data[:, :3, 5:] == pytest.approx(full.data[..., 5:], abs=0)
    assert np.all(padded.data[:, 3:] == 0.0)


def test_lstm_sequence_gradients_with_mask_and_reverse():
    # Rows padded by different amounts, so both directions cross padding;
    # the input is in the store, so its gradient is checked too.
    store = blstm_store(6, 3, 4, 2, 3)
    mask = prefix_mask([3, 4, 1], 4)
    weights = np.random.default_rng(7).normal(size=(3, 4, 6))

    def loss():
        out = run_blstm(store, mask)
        return tz.tsum(out * weights) + tz.tsum(out[..., 3:] * out[..., 3:])

    check_grads(loss, store)


def test_lstm_sequence_input_gradient():
    store = random_lstm_store(8, 2, 3, names=("f", "b"))
    xs_store = store_with(xs=np.random.default_rng(9).normal(size=(1, 3, 2)))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    check_grads(lambda: tz.tsum(lstm_sequence(xs_store["xs"], np.ones((1, 3)), fwd, bwd)), xs_store)


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
    for layer in (blstm, two_pass_blstm):
        out = run_blstm(store, mask, layer)
        results.append((out.data, backward(tz.tsum(out * gout), store)))
    (out, grads), (want, want_grads) = results
    assert_close_to_scale(out, want, 1e-14)
    for name, g in want_grads.items():
        assert_close_to_scale(grads[name], g, 1e-12)
    empty = np.asarray(lengths) == 0
    assert not out[empty].any() and not grads["xs"][empty].any()
    assert not out[mask == 0].any() and not grads["xs"][mask == 0].any()


def test_lstm_sequence_no_grad_is_parentless_with_same_value():
    store = blstm_store(12, 3, 5, 2, 3)
    mask = prefix_mask([2, 5, 4], 5)
    out = run_blstm(store, mask)
    assert out.parents
    with tz.no_grad():
        plain = run_blstm(store, mask)
    assert plain.parents == () and plain.backward is None
    assert np.array_equal(plain.data, out.data)


@pytest.mark.parametrize(
    "mask",
    [
        [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]],  # a gap
        [[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]],  # left-padded
        [[1.0, 0.5, 0.0], [1.0, 1.0, 1.0]],  # not 0/1
        [[1.0, 1.0], [1.0, 1.0]],  # wrong shape
    ],
)
def test_lstm_sequence_rejects_a_mask_that_is_not_a_prefix(mask):
    store = blstm_store(13, 2, 3, 2, 3)
    with pytest.raises(ShapeError):
        run_blstm(store, np.array(mask))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["xs", "f.w_ih", "f.w_hh", "f.b", "b.w_ih", "b.w_hh", "b.b"])
def test_lstm_sequence_rejects_non_finite_input(name, bad):
    # flat[-1] of xs is a padded frame, which the op never reads
    store = blstm_store(14, 2, 3, 2, 3)
    store[name].data.flat[-1] = bad
    with pytest.raises(NonFiniteError):
        run_blstm(store, prefix_mask([3, 1], 3))


def test_lstm_sequence_rejects_weights_that_do_not_fit():
    store = blstm_store(16, 2, 3, 2, 3)
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    mask = prefix_mask([3, 2], 3)
    with pytest.raises(ShapeError):  # input dim 3 against weights for 2
        lstm_sequence(Tensor(np.zeros((2, 3, 3))), mask, fwd, bwd)
    with pytest.raises(ShapeError):  # directions of different widths
        lstm_sequence(store["xs"], mask, fwd, lstm_params_from(random_lstm_store(17, 2, 2), "cell"))


def test_lstm_sequence_backward_runs_once():
    store = blstm_store(15, 2, 3, 2, 3)
    out = run_blstm(store, prefix_mask([3, 2], 3))
    out.backward(np.ones(out.shape))
    with pytest.raises(NumericsError):
        out.backward(np.ones(out.shape))


def test_blstm_single_step_is_two_cells():
    store = random_lstm_store(10, 3, 4, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    x = np.random.default_rng(11).normal(size=(1, 1, 3))
    out = blstm(Tensor(x), np.ones((1, 1)), fwd, bwd)
    hf, _ = lstm_step(Tensor(x[:, 0]), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), fwd)
    hb, _ = lstm_step(Tensor(x[:, 0]), (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), bwd)
    assert out.data[0, 0] == pytest.approx(np.concatenate([hf.data[0], hb.data[0]]))


def test_blstm_direction_swap_symmetry():
    # Reversing the input and swapping direction params reverses the output
    # sequence with the two halves swapped.
    store = random_lstm_store(12, 3, 4, names=("f", "b"))
    fwd, bwd = lstm_params_from(store, "f"), lstm_params_from(store, "b")
    xs = np.random.default_rng(13).normal(size=(1, 5, 3))
    mask = np.ones((1, 5))
    out = blstm(Tensor(xs), mask, fwd, bwd)
    out_swapped = blstm(Tensor(xs[:, ::-1].copy()), mask, bwd, fwd)
    H = 4
    assert out_swapped.data[:, ::-1, :H] == pytest.approx(out.data[:, :, H:], abs=1e-12)
    assert out_swapped.data[:, ::-1, H:] == pytest.approx(out.data[:, :, :H], abs=1e-12)


def test_blstm_empty_sequence_rejected():
    store = random_lstm_store(14, 3, 4, names=("f", "b"))
    with pytest.raises(ShapeError):
        blstm(Tensor(np.zeros((1, 0, 3))), np.zeros((1, 0)), lstm_params_from(store, "f"), lstm_params_from(store, "b"))


# ---------------------------------------------------------------------------
# max_pool_time
# ---------------------------------------------------------------------------


def test_pool_scalars():
    xs = Tensor(np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1))
    out, mask = max_pool_time(xs, np.ones((1, 4)), 2)
    assert out.data.reshape(-1).tolist() == [3.0, 5.0]
    assert mask.tolist() == [[1.0, 1.0]]


def test_pool_t16_three_pools_gives_2():
    xs = Tensor(np.random.default_rng(0).normal(size=(1, 16, 2)))
    mask = np.ones((1, 16))
    for _ in range(3):
        xs, mask = max_pool_time(xs, mask, 2)
    assert xs.shape[1] == 2
    assert mask.sum() == 2


def test_pool_odd_tail_forms_own_window():
    xs = Tensor(np.arange(5.0).reshape(1, 5, 1))
    out, mask = max_pool_time(xs, np.ones((1, 5)), 2)
    assert out.shape[1] == 3
    assert out.data.reshape(-1).tolist() == [1.0, 3.0, 4.0]


def test_pool_ceil_chain_matches_formula():
    for T in [1, 2, 5, 8, 9, 16, 23]:
        xs = Tensor(np.zeros((1, T, 1)))
        mask = np.ones((1, T))
        expect = T
        for _ in range(3):
            xs, mask = max_pool_time(xs, mask, 2)
            expect = -(-expect // 2)
        assert xs.shape[1] == expect
        if T % 8 == 0:
            assert xs.shape[1] == T // 8


def test_pool_idempotent_on_constant_and_commutes_with_monotone():
    xs = np.full((1, 6, 3), 2.5)
    once, m1 = max_pool_time(Tensor(xs), np.ones((1, 6)), 2)
    assert np.all(once.data == 2.5)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(2, 7, 3))
    mask = np.array([[1.0] * 7, [1.0] * 5 + [0.0] * 2])
    pooled_then_map, _ = max_pool_time(Tensor(np.exp(raw)), mask, 2)
    mapped_then_pool, pm = max_pool_time(Tensor(raw), mask, 2)
    assert pooled_then_map.data == pytest.approx(np.exp(mapped_then_pool.data) * pm[:, :, None], abs=1e-12)


def test_pool_respects_padding_with_negative_values():
    # all-negative valid frames must not lose the max to zero padding
    xs = np.full((1, 3, 2), -4.0)
    padded = np.concatenate([xs, np.zeros((1, 1, 2))], axis=1)
    out, mask = max_pool_time(Tensor(padded), np.array([[1.0, 1.0, 1.0, 0.0]]), 2)
    assert np.all(out.data == -4.0)
    assert mask.tolist() == [[1.0, 1.0]]


def test_pool_gradients():
    rng = np.random.default_rng(2)
    store = store_with(xs=rng.normal(size=(2, 5, 3)))
    mask = np.array([[1.0] * 5, [1.0] * 3 + [0.0] * 2])

    def loss():
        out, _ = max_pool_time(store["xs"], mask, 2)
        return tz.tsum(out * rng_weights)

    rng_weights = rng.normal(size=(2, 3, 3))
    check_grads(loss, store)


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
    enc = EncoderStates(Tensor(np.random.default_rng(0).normal(size=(1, 6, 5))), np.ones((1, 6)), np.array([6]))
    att = additive_attention(Tensor(np.zeros((1, 3))), enc, Tensor(np.zeros((1, 6))), attention_params(store))
    assert att.weights.data == pytest.approx(np.full((1, 6), 1 / 6))


def test_attention_single_position():
    store = attention_store(1, 3, 5, 4)
    enc_states = np.random.default_rng(2).normal(size=(1, 1, 5))
    enc = EncoderStates(Tensor(enc_states), np.ones((1, 1)), np.array([1]))
    att = additive_attention(Tensor(np.zeros((1, 3))), enc, Tensor(np.zeros((1, 1))), attention_params(store))
    np.testing.assert_allclose(att.weights.data, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(att.context.data, enc_states[:, 0], atol=1e-12)


def test_attention_feedback_accumulates_weights():
    store = attention_store(3, 3, 5, 4)
    rng = np.random.default_rng(4)
    enc = EncoderStates(Tensor(rng.normal(size=(2, 4, 5))), np.ones((2, 4)), np.array([4, 4]))
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
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    s_prev = rng.normal(size=(2, 3))
    fb0 = rng.random((2, 3))

    def loss():
        enc = EncoderStates(Tensor(enc_data), mask, mask.sum(1))
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

# Two memories with padded positions; (S, B) targets with padded steps, and
# one masked step inside a sequence, whose frozen state later steps read.
DEC_MASKS = (np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
DEC_TARGETS = np.array([[1, 2], [3, 4], [2, 1], [4, 1]])
DEC_STEP_MASK = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


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
    for k, (mask, d) in enumerate(zip(DEC_MASKS, mem_dims)):
        arrays[f"m{k}.states"] = rng.normal(size=(*mask.shape, d))
        arrays[f"a{k}.w_query"] = rng.normal(size=(H, A)) * 0.5
        arrays[f"a{k}.w_keys"] = rng.normal(size=(d, A)) * 0.5
        arrays[f"a{k}.v"] = rng.normal(size=A)
        arrays[f"a{k}.b"] = rng.normal(size=A) * 0.1
        arrays[f"a{k}.u"] = rng.normal(size=A) * 0.5
    return store_with(**arrays)


def run_decoder(store, eps=0.1, layers=2):
    memories = [
        (
            EncoderStates(store[f"m{k}.states"], mask, mask.sum(1)),
            AttentionParams(*(store[f"a{k}.{n}"] for n in ("w_query", "w_keys", "v", "b", "u"))),
        )
        for k, mask in enumerate(DEC_MASKS)
    ]
    cells = [lstm_params_from(store, f"l{j}") for j in range(layers)]
    return teacher_forced_decoder(
        memories, store["emb"], cells, store["out_w"], store["out_b"], DEC_TARGETS, DEC_STEP_MASK, 0, eps
    )


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
    with pytest.raises(NonFiniteError):
        run_decoder(store)


def test_teacher_forced_decoder_no_grad_is_parentless_with_same_value():
    store = decoder_store(3)
    loss, pred = run_decoder(store)
    assert loss.parents
    with tz.no_grad():
        plain, plain_pred = run_decoder(store)
    assert plain.parents == () and plain.backward is None
    assert plain.item() == loss.item()
    assert np.array_equal(plain_pred, pred)


def test_dropout_identity_cases():
    x = Tensor(np.random.default_rng(0).normal(size=(10, 10)))
    rng = np.random.default_rng(1)
    assert np.array_equal(dropout(x, 0.0, True, rng).data, x.data)
    assert np.array_equal(dropout(x, 0.5, False, rng).data, x.data)


def test_dropout_zeroed_fraction_and_scaling():
    x = Tensor(np.ones((200, 100)))
    rng = np.random.default_rng(2)
    out = dropout(x, 0.3, True, rng)
    zero_frac = (out.data == 0.0).mean()
    assert abs(zero_frac - 0.3) < 0.05
    kept = out.data[out.data != 0.0]
    assert kept == pytest.approx(np.full_like(kept, 1.0 / 0.7))


def test_embed_identity_table_and_repeat():
    table = Tensor(np.eye(4))
    one_hot = embed(2, table)
    assert np.array_equal(one_hot.data, np.eye(4)[2])
    twice = embed(np.array([1, 1]), table)
    assert np.array_equal(twice.data[0], twice.data[1])
