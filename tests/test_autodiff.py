"""Gradient and invariant checks for the reverse-mode engine and the single
graph ops that the reference graphs in ``oracles`` are built from, and for
the package's parameter buffers and optimiser."""

import numpy as np
import pytest

import oracles as ops
from calibtrain import autodiff as ad
from calibtrain.losses import Loss
from oracles import fd_coordinate, rel_error


def _grad_of(build, x0):
    """Analytic gradient of a scalar graph w.r.t. a single leaf array."""
    leaf = ops.param(x0)
    loss = build(leaf)
    ops.backward(loss)
    return leaf.grad


def _value_of(build, x0):
    return float(build(ops.constant(x0)).value)


OPS = {
    "matmul": lambda x: ops.mean(ops.matmul(x, ops.constant(np.arange(12.0).reshape(4, 3)))),
    "add_broadcast": lambda x: ops.nsum(ops.mul(ops.add(x, ops.constant(np.ones((1, 4)))), x)),
    "mul": lambda x: ops.nsum(ops.mul(x, x)),
    "div": lambda x: ops.nsum(ops.div(x, ops.constant(np.full((3, 4), 2.5)))),
    "div_denominator": lambda x: ops.nsum(ops.div(ops.constant(np.ones((3, 4))), x + 3.0)),
    "relu": lambda x: ops.nsum(ops.relu(x)),
    "abs": lambda x: ops.nsum(ops.absolute(x)),
    "sigmoid": lambda x: ops.nsum(ops.sigmoid(x)),
    "tanh": lambda x: ops.nsum(ops.tanh(x)),
    "exp": lambda x: ops.mean(ops.exp(x)),
    "log": lambda x: ops.nsum(ops.log(x + 4.0)),
    "softmax": lambda x: ops.nsum(ops.mul(ops.softmax(x), ops.constant(np.arange(12.0).reshape(3, 4)))),
    "mean": lambda x: ops.mean(x),
    "sum_axis0": lambda x: ops.nsum(ops.mul(ops.nsum(x, axis=0), ops.nsum(x, axis=0))),
    "sum_axis1": lambda x: ops.nsum(ops.mul(ops.nsum(x, axis=1), ops.nsum(x, axis=1))),
    "power": lambda x: ops.nsum(ops.power(ops.mul(x, x) + 1.0, 1.7)),
    "sqrt": lambda x: ops.power(ops.nsum(ops.mul(x, x)) + 1.0, 0.5),
    "transpose": lambda x: ops.nsum(ops.matmul(ops.transpose(x), x)),
    "hinge": lambda x: ops.nsum(ops.relu(x - 0.3)),
    "clamp": lambda x: ops.nsum(ops.clamp(x, -0.5, 0.5)),
    "maximum": lambda x: ops.nsum(ops.maximum(x, ops.constant(np.zeros((3, 4)) + 0.1))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    build = OPS[name]
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        x0 = rng.standard_normal((3, 4))
        grad = _grad_of(build, x0)
        assert grad.shape == x0.shape
        for idx in range(x0.size):
            num = fd_coordinate(lambda a: _value_of(build, a), x0, idx)
            ana = grad.flat[idx]
            if abs(num) < 1e-7 and abs(ana) < 1e-7:
                continue
            assert rel_error(num, ana) < 1e-4, (name, idx, num, ana)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    extreme = ops.softmax(ops.constant(rng.standard_normal((50, 2)) * 30)).value
    assert np.all(np.abs(extreme.sum(axis=1) - 1.0) < 1e-12)
    # open-interval bounds hold wherever float64 can represent them
    s = ops.softmax(ops.constant(rng.standard_normal((50, 2)) * 5)).value
    assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(s > 0) and np.all(s < 1)
    sym = ops.softmax(ops.constant(np.array([[0.0, 0.0]]))).value
    assert np.allclose(sym, [[0.5, 0.5]], atol=0)


def test_log_floor():
    x = ops.constant(np.array([[0.0]]))
    out = ops.log(x)
    assert out.value[0, 0] == np.log(1e-12)
    # below the floor the function is constant, so the gradient is zero
    leaf = ops.param(np.array([[0.0]]))
    ops.backward(ops.nsum(ops.log(leaf)))
    assert leaf.grad[0, 0] == 0.0


def test_hinge_subgradient_values():
    for x0, expected in [(0.5, 1.0), (0.1, 0.0), (0.3, 0.0)]:
        leaf = ops.param(np.array(x0))
        ops.backward(ops.relu(leaf - 0.3))
        assert leaf.grad == expected


def test_backward_sum_gives_ones():
    leaf = ops.param(np.arange(6.0).reshape(2, 3))
    ops.backward(ops.nsum(leaf))
    assert np.array_equal(leaf.grad, np.ones((2, 3)))


def test_backward_mean_square_hand_derived():
    # loss = mean(x^2), x = [1,2,3]  ->  grad = 2x/3 = [2/3, 4/3, 2]
    leaf = ops.param(np.array([1.0, 2.0, 3.0]))
    ops.backward(ops.mean(ops.mul(leaf, leaf)))
    assert np.allclose(leaf.grad, [2.0 / 3.0, 4.0 / 3.0, 2.0], atol=1e-15)


def test_backward_rejects_second_call():
    leaf = ops.param(np.array(2.0))
    loss = ops.mul(leaf, leaf)
    ops.backward(loss)
    with pytest.raises(RuntimeError):
        ops.backward(loss)


def test_package_backward_runs_a_loss_schedule_once():
    calls = []
    loss = Loss(np.float64(1.0), lambda: calls.append(1))
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="^backward already called on this loss"):
        ad.backward(loss)
    assert calls == [1]


def test_backward_rejects_non_scalar():
    leaf = ops.param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ops.backward(ops.mul(leaf, leaf))


def test_shared_subexpression_gradient():
    # y = x*x + x  ->  dy/dx = 2x + 1; the leaf is visited once per use
    leaf = ops.param(np.array(3.0))
    ops.backward(ops.add(ops.mul(leaf, leaf), leaf))
    assert leaf.grad == 7.0


def test_shape_mismatch_diagnostic_names_both_shapes():
    a = ops.constant(np.ones((2, 3)))
    b = ops.constant(np.ones((4, 5)))
    with pytest.raises(ad.ShapeMismatch) as err:
        ops.add(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(ad.ShapeMismatch):
        ops.matmul(a, b)


def test_grad_shape_equals_value_shape():
    leaf = ops.param(np.ones((3, 1)))
    other = ops.constant(np.ones((1, 5)))
    out = ops.add(leaf, other)  # broadcast to (3, 5)
    assert out.grad.shape == out.value.shape
    ops.backward(ops.nsum(out))
    assert leaf.grad.shape == leaf.value.shape


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        ps = ad.ParamSet({"w": np.array([1.0, -2.0])})
        w = ps["w"]
        opt = ad.Adam(ps, lr=0.1)
        opt.step()
        assert np.array_equal(w.value, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # closed form at t=1 with g=1: delta = lr * 1 / (1 + eps_adam)
        ps = ad.ParamSet({"w": np.array(5.0)})
        w = ps["w"]
        opt = ad.Adam(ps, lr=0.1)
        w.grad[...] = 1.0
        opt.step()
        expected = 5.0 - 0.1 / (1.0 + 1e-8)
        assert abs(float(w.value) - expected) < 1e-15
        assert w.grad == 0.0  # zeroed after the step

    def test_identical_gradients_decrease_monotonically(self):
        ps = ad.ParamSet({"w": np.array(1.0)})
        w = ps["w"]
        opt = ad.Adam(ps, lr=0.05)
        prev = float(w.value)
        for _ in range(5):
            w.grad[...] = 1.0
            opt.step()
            assert float(w.value) < prev
            prev = float(w.value)

    def test_non_finite_gradient_names_parameter(self):
        for name in ("enc.w1", "enc.b1", "clf.w2"):
            ps = ad.ParamSet({"enc.w1": np.ones(2), "enc.b1": np.ones(3),
                              "clf.w2": np.ones((2, 2))})
            opt = ad.Adam(ps)
            bad = np.ones(ps[name].value.shape)
            bad.flat[-1] = np.nan if name != "enc.b1" else -np.inf
            ps[name].grad[...] = bad
            with pytest.raises(ad.NonFiniteGradient) as err:
                opt.step()
            assert str(err.value) == f"non-finite gradient in parameter {name!r}"
            assert np.array_equal(ps.flat, np.ones(9))   # nothing was updated


def test_paramset_views_share_one_buffer():
    ps = ad.ParamSet({"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]]),
                      "c": np.array(5.0)})
    a, b, c = ps["a"], ps["b"], ps["c"]
    assert ps.names() == ["a", "b", "c"]
    assert np.array_equal(ps.flat, [1.0, 2.0, 3.0, 4.0, 5.0])
    a.value[1] = 20.0
    b.value = np.array([[30.0], [40.0]])
    c.grad[...] = 7.0
    assert np.array_equal(ps.flat, [1.0, 20.0, 30.0, 40.0, 5.0])
    assert np.array_equal(ps.grad, [0.0, 0.0, 0.0, 0.0, 7.0])
    with pytest.raises(ad.ShapeMismatch):
        b.value = np.zeros(2)
    with pytest.raises(AttributeError):     # rebinding would detach it from ps.grad
        c.grad = np.array(8.0)
    assert ps.grad[-1] == 7.0
    snapshot = ps.copy_values()
    a.value[0] = -1.0
    assert snapshot["a"][0] == 1.0
    ps.load_values(snapshot)
    assert np.array_equal(ps.flat, [1.0, 20.0, 30.0, 40.0, 5.0])
    assert not ps.grad.any()
    # a stored scalar would broadcast into "a" if the shapes went unchecked
    with pytest.raises(ad.ShapeMismatch,
                       match=r"^parameter 'a': stored shape \(\) vs model shape \(2,\)$"):
        ps.load_values({**snapshot, "a": np.array(9.0)})
    assert np.array_equal(ps.flat, [1.0, 20.0, 30.0, 40.0, 5.0])


def test_determinism_identical_seed_identical_trajectory():
    def run():
        rng = np.random.default_rng(11)
        ps = ad.ParamSet({"w": rng.standard_normal((4, 3))})
        w = ps["w"]
        leaf = ops.ParamLeaf(w)
        opt = ad.Adam(ps, lr=0.01)
        for _ in range(20):
            x = ops.constant(rng.standard_normal((5, 4)))
            loss = ops.mean(ops.mul(ops.matmul(x, leaf), ops.matmul(x, leaf)))
            ops.backward(loss)
            opt.step()
        return w.value.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)
