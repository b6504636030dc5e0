import numpy as np
import pytest

from deskst import tensor as tz
from deskst.tensor import NonFiniteError, NumericsError, ShapeError, Tensor, backward_graph

from util import check_grads, store_with


def test_finiteness_enforced_on_construction():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_a_non_finite_gradient_is_raised_naming_the_parent_it_flows_into():
    w = Tensor([1.0, 2.0], name="w")
    node = Tensor(w.data * 3.0, parents=(w,), backward=lambda g: (np.full(2, np.inf),))
    with pytest.raises(NonFiniteError, match=r"non-finite gradient flowing into Tensor\(shape=\(2,\) name='w'\)"):
        backward_graph(tz.tsum(node))


def test_safe_log_clamps_and_zero_grads():
    x = Tensor([0.0, 1.0])
    out = tz.safe_log(x)
    assert out.data[0] == pytest.approx(np.log(1e-300))
    grads = backward_graph(tz.tsum(out))
    assert grads[id(x)][0] == 0.0
    assert grads[id(x)][1] == 1.0


def test_backward_requires_scalar_and_graph():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ShapeError):
        backward_graph(x + x)
    with pytest.raises(NumericsError):
        backward_graph(Tensor(3.0))


def test_backward_linearity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3)))
    l1 = tz.tsum(tz.tanh(x) * 2.0)
    l2 = tz.tsum(tz.sigmoid(x))
    g1 = backward_graph(l1)[id(x)]
    g2 = backward_graph(l2)[id(x)]
    g12 = backward_graph(l1 + l2)[id(x)]
    assert np.abs(g12 - (g1 + g2)).max() <= 1e-12


def test_reused_node_accumulates():
    x = Tensor(3.0)
    y = x * x  # dy/dx = 2x = 6
    grads = backward_graph(y)
    assert grads[id(x)] == pytest.approx(6.0)


@pytest.mark.parametrize(
    "shapes,fn",
    [
        (((3, 4), (3, 4)), lambda a, b: tz.tsum(a * b)),
        (((3, 4), (4,)), lambda a, b: tz.tsum(a + b)),  # broadcasting add
        (((3, 4), (4, 2)), lambda a, b: tz.tsum(tz.tanh(a @ b))),
        (((2, 3, 4), (4, 5)), lambda a, b: tz.tsum(a @ b)),  # batched matmul
        (((2, 3, 4), (4,)), lambda a, b: tz.tsum(a @ b)),  # matvec
        (((5,), (5, 3)), lambda a, b: tz.tsum(a @ b)),  # vecmat
        (((4,), (4,)), lambda a, b: a @ b),  # dot
        (((2, 5), (2, 5)), lambda a, b: tz.tsum(tz.sigmoid(a * 0.3) * tz.sigmoid(b))),
    ],
)
def test_op_gradients_match_finite_differences(shapes, fn):
    rng = np.random.default_rng(42)
    store = store_with(a=rng.normal(size=shapes[0]), b=rng.normal(size=shapes[1]))
    check_grads(lambda: fn(store["a"], store["b"]), store)


def test_reduction_and_shaping_gradients():
    rng = np.random.default_rng(1)
    store = store_with(a=rng.normal(size=(3, 4)), b=rng.normal(size=(3, 4)))

    def loss():
        a, b = store["a"], store["b"]
        joined = tz.concat([a, b], axis=-1)
        piled = tz.stack([a, b], axis=0)
        return tz.tsum(tz.tanh(joined)) + tz.tsum(piled * piled) + tz.tsum(tz.reshape(a, (4, 3)) * 2.0)

    check_grads(loss, store)


def test_slice_gradients():
    rng = np.random.default_rng(2)
    store = store_with(a=rng.normal(size=(4, 6)))
    check_grads(lambda: tz.tsum(tz.tanh(store["a"][:, 1:4])), store)


def test_softmax_rows_normalized_and_grads():
    rng = np.random.default_rng(3)
    store = store_with(a=rng.normal(size=(5, 7)))
    probs = tz.softmax(store["a"])
    assert np.abs(probs.data.sum(axis=-1) - 1.0).max() < 1e-12
    check_grads(lambda: tz.tsum(tz.softmax(store["a"]) * np.arange(7.0)), store)
    check_grads(lambda: tz.tsum(tz.log_softmax(store["a"]) * np.arange(7.0)), store)


def test_masked_softmax_zeroes_invalid_positions():
    rng = np.random.default_rng(4)
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=float)
    store = store_with(a=rng.normal(size=(2, 4)))
    out = tz.masked_softmax(store["a"], mask)
    assert np.all(out.data[0, 2:] == 0.0)
    assert out.data.sum(axis=-1) == pytest.approx([1.0, 1.0], abs=1e-12)
    check_grads(lambda: tz.tsum(tz.masked_softmax(store["a"], mask) * np.arange(4.0)), store)
    with pytest.raises(ShapeError):
        tz.masked_softmax(store["a"], np.zeros((2, 4)))


def test_embedding_gradient_hits_only_used_rows():
    table = Tensor(np.eye(5))
    ids = np.array([1, 3, 3])
    out = tz.embedding(table, ids)
    assert np.array_equal(out.data, np.eye(5)[ids])
    grads = backward_graph(tz.tsum(out * np.arange(5.0)))
    gt = grads[id(table)]
    assert np.all(gt[[0, 2, 4]] == 0.0)
    assert np.array_equal(gt[3], 2 * np.arange(5.0))  # id 3 looked up twice
    with pytest.raises(ShapeError):
        tz.embedding(table, np.array([5]))


def test_gather_last_gradient():
    rng = np.random.default_rng(5)
    store = store_with(a=rng.normal(size=(3, 6)))
    ids = np.array([0, 5, 2])
    check_grads(lambda: tz.tsum(tz.gather_last(tz.softmax(store["a"]), ids)), store)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3))
    with tz.no_grad():
        y = tz.tsum(x * x)
    assert y.parents == ()
    assert y.backward is None


def test_backward_graph_returns_leaves_only():
    rng = np.random.default_rng(7)
    x, w = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 4)))
    c = rng.normal(size=(2, 4))
    hidden = tz.tanh(x @ w)
    scaled = hidden * c
    loss = tz.tsum(scaled + c)
    grads = backward_graph(loss)
    leaves = {id(node) for node in tz._topo_order(loss) if node.backward is None}
    assert {id(x), id(w)} <= leaves and set(grads) == leaves  # no interior node
    expected_w = x.data.T @ (c * (1.0 - hidden.data**2))
    assert np.abs(grads[id(w)] - expected_w).max() <= 1e-12
