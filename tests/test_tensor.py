import numpy as np
import pytest

from sslcrop import tensor as T
from sslcrop.tensor import GradientContractError, ShapeMismatch, Tensor


def params_of(**arrays):
    return {k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for k, v in arrays.items()}


def finite_difference(make_loss, param: Tensor, h=1e-6):
    """Central differences of make_loss() w.r.t. every entry of param."""
    grad = np.zeros(param.data.size)
    flat = param.data.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        lp = make_loss().item()
        flat[j] = orig - h
        lm = make_loss().item()
        flat[j] = orig
        grad[j] = (lp - lm) / (2 * h)
    return grad.reshape(param.shape)


def max_rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float((np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)])).max())


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(out - expect).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = T.softmax_rows(Tensor([0.0, 0.0, 0.0])).data
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_large_values_do_not_overflow(self):
        out = T.softmax_rows(Tensor([1000.0, 1000.0])).data
        assert np.allclose(out, [0.5, 0.5])

    def test_closed_form_ratio(self):
        out = T.softmax_rows(Tensor([0.0, np.log(3.0)])).data
        assert np.abs(out - [0.25, 0.75]).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax_rows(Tensor(rng.normal(size=(7, 11)) * 5)).data
        assert np.all(out >= 0)
        assert np.abs(out.sum(axis=1) - 1).max() < 1e-12


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(out.data).max() < 1e-9

    def test_two_point_standardization(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-15)
        assert np.abs(out.data - [[-1.0, 1.0]]).max() < 1e-6

    def test_against_direct_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8)) * 4
        out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-10).data
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.var(axis=1) - 1).max() < 1e-9
        direct = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-10)
        assert np.abs(out - direct).max() < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = T.gradients(T.sum_all(p), {"p": p})
        assert np.array_equal(grads["p"], np.ones((2, 3)))

    def test_stop_gradient_blocks_exactly(self):
        p = params_of(p=[1.0, 2.0], q=[3.0, 4.0])
        root = T.sum_all(T.mul(T.stop_gradient(p["p"]), p["q"]))
        grads = T.gradients(root, p)
        assert np.array_equal(grads["p"], np.zeros(2))  # bitwise zero
        assert np.array_equal(grads["q"], np.array([1.0, 2.0]))

    def test_shared_subexpression_accumulates_once_per_use(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        root = T.add(T.sum_all(T.mul(a, a)), T.sum_all(a))
        grads = T.gradients(root, {"a": a})
        assert np.allclose(grads["a"], 2 * a.data + 1)

    def test_non_scalar_root_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GradientContractError):
            T.backward(T.relu(p))

    def test_unreachable_parameter_gets_zeros(self):
        p = params_of(a=[1.0], b=[2.0])
        grads = T.gradients(T.sum_all(p["a"]), p)
        assert np.array_equal(grads["b"], np.zeros(1))

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = params_of(
            w1=rng.normal(size=(5, 4)),
            b1=rng.normal(size=4),
            w2=rng.normal(size=(4, 3)),
            gain=rng.normal(size=3) + 1.5,
            bias=rng.normal(size=3),
        )
        x = Tensor(rng.normal(size=(6, 5)))
        target = Tensor(rng.normal(size=(6, 3)))

        def loss():
            h = T.relu(T.add_bias(T.matmul(x, p["w1"]), p["b1"]))
            y = T.layer_norm(T.matmul(h, p["w2"]), p["gain"], p["bias"])
            y = T.l2_normalize(T.softmax_rows(y))
            return T.mean_all(T.sum_last(T.mul(y, target)))

        grads = T.gradients(loss(), p)
        for name, param in p.items():
            fd = finite_difference(loss, param)
            assert max_rel_err(grads[name], fd) < 1e-6, name

    def test_same_graph_twice_is_bitwise_identical(self):
        rng = np.random.default_rng(9)
        p = params_of(w=rng.normal(size=(3, 3)))
        x = Tensor(rng.normal(size=(2, 3)))
        g1 = T.gradients(T.sum_all(T.softmax_rows(T.matmul(x, p["w"]))), p)
        g2 = T.gradients(T.sum_all(T.softmax_rows(T.matmul(x, p["w"]))), p)
        assert np.array_equal(g1["w"], g2["w"])


class TestMaxAxis:
    def test_tie_routes_to_first(self):
        a = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        grads = T.gradients(T.sum_all(T.max_axis(a, axis=1)), {"a": a})
        assert grads["a"].tolist() == [[1.0, 0.0, 0.0]]


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = T.cross_entropy(Tensor(np.zeros((4, 6))), np.array([0, 1, 2, 3]))
        assert abs(loss.item() - np.log(6)) < 1e-12

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        p = params_of(w=[1.0, 2.0])
        T.sgd_step(p, {}, {"w": np.array([5.0, -3.0])}, lr=0.0)
        assert p["w"].data.tolist() == [1.0, 2.0]

    def test_plain_gradient_step(self):
        p = params_of(w=[1.0])
        T.sgd_step(p, {}, {"w": np.array([2.0])}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert abs(p["w"].data[0] - 0.8) < 1e-15

    def test_momentum_recursion_by_hand(self):
        # g=1 both steps, momentum 0.9: m1=1, m2=1.9 -> theta = -(1 + 1.9)
        p = params_of(w=[0.0])
        buffers = {}
        for _ in range(2):
            T.sgd_step(p, buffers, {"w": np.array([1.0])}, lr=1.0, momentum=0.9, weight_decay=0.0)
        assert abs(p["w"].data[0] - (-2.9)) < 1e-15

    def test_coupled_weight_decay(self):
        p = params_of(w=[2.0])
        T.sgd_step(p, {}, {"w": np.array([0.0])}, lr=0.1, momentum=0.0, weight_decay=0.5)
        assert abs(p["w"].data[0] - (2.0 - 0.1 * 1.0)) < 1e-15

    def test_key_mismatch_rejected(self):
        p = params_of(w=[1.0])
        with pytest.raises(GradientContractError, match="missing"):
            T.sgd_step(p, {}, {}, lr=0.1)
        with pytest.raises(GradientContractError, match="extra"):
            T.sgd_step(p, {}, {"w": np.zeros(1), "v": np.zeros(1)}, lr=0.1)


class TestL2Normalize:
    def test_rows_become_unit(self):
        rng = np.random.default_rng(3)
        out = T.l2_normalize(Tensor(rng.normal(size=(5, 4)))).data
        assert np.abs(np.linalg.norm(out, axis=1) - 1).max() < 1e-12

    def test_zero_row_guarded(self):
        out = T.l2_normalize(Tensor(np.zeros((1, 4)))).data
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, np.zeros((1, 4)))


class TestFusedNodes:
    """linear and attention against central differences, like the composite check."""

    def check(self, p, loss):
        grads = T.gradients(loss(), p)
        for name, param in p.items():
            assert max_rel_err(grads[name], finite_difference(loss, param)) < 1e-6, name

    @pytest.mark.parametrize("seed", range(2))
    def test_linear_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = params_of(x=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(4, 5)), b=rng.normal(size=5))
        target = Tensor(rng.normal(size=(2, 3, 5)))
        self.check(p, lambda: T.sum_all(T.mul(T.relu(T.linear(p["x"], p["w"], p["b"])), target)))

    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(4)
        x, w, b = Tensor(rng.normal(size=(3, 2, 4))), Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=6))
        assert np.abs(T.linear(x, w, b).data - T.add_bias(T.matmul(x, w), b).data).max() < 1e-12

    @pytest.mark.parametrize("seed", range(2))
    def test_attention_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 4
        p = params_of(
            x=rng.normal(size=(2, 5, d)),
            **{f"w{c}": rng.normal(size=(d, d)) for c in "qkvo"},
            **{f"b{c}": rng.normal(size=d) for c in "qkvo"},
        )
        target = Tensor(rng.normal(size=(2, 5, d)))

        def loss():
            params = [p[f"{kind}{c}"] for c in "qkvo" for kind in "wb"]
            return T.sum_all(T.mul(T.attention(p["x"], *params, n_heads=2), target))

        self.check(p, loss)


class TestSingleUseTape:
    def graph(self):
        rng = np.random.default_rng(8)
        p = params_of(w=rng.normal(size=(3, 3)), b=rng.normal(size=3))
        hidden = T.relu(T.linear(Tensor(rng.normal(size=(4, 3))), p["w"], p["b"]))
        return p, hidden, T.sum_all(T.softmax_rows(hidden))

    def test_interior_nodes_are_released(self):
        p, hidden, root = self.graph()
        assert hidden._parents
        T.gradients(root, p)
        for node in (hidden, root):
            assert node._parents == () and node.grad is None
        assert all(param.grad is None for param in p.values())

    def test_backward_leaves_grads_on_leaves_only(self):
        p, hidden, root = self.graph()
        T.backward(root)
        assert hidden.grad is None and root.grad is None
        assert p["w"].grad.shape == (3, 3) and p["b"].grad.shape == (3,)

    def test_consumed_root_raises(self):
        p, _, root = self.graph()
        T.gradients(root, p)
        with pytest.raises(GradientContractError, match="consumed"):
            T.gradients(root, p)

    def test_new_root_over_consumed_node_raises(self):
        p, hidden, root = self.graph()
        T.gradients(root, p)
        with pytest.raises(GradientContractError, match="consumed"):
            T.gradients(T.sum_all(hidden), p)

    def test_constants_record_no_tape(self):
        out = T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_batch_norm_eval_refuses_a_gradient(self):
        p = params_of(x=np.ones((2, 3)), gain=np.ones(3), bias=np.zeros(3))
        out = T.batch_norm_eval(p["x"], p["gain"], p["bias"], np.zeros(3), np.ones(3))
        with pytest.raises(GradientContractError, match="batch_norm_eval"):
            T.gradients(T.sum_all(out), p)


class TestSeededGradients:
    """gradients(root, params, grad=G): the vector-Jacobian product of a non-scalar root."""

    def graph(self, seed=5):
        rng = np.random.default_rng(seed)
        p = params_of(w=rng.normal(size=(3, 4)), b=rng.normal(size=4))
        x = Tensor(rng.normal(size=(2, 5, 3)))
        return p, lambda: T.max_axis(T.relu(T.linear(x, p["w"], p["b"])), axis=1)

    def test_seed_equals_the_scalar_sum_against_the_seed(self):
        p, out = self.graph()
        G = np.random.default_rng(6).normal(size=(2, 4))
        seeded = T.gradients(out(), p, grad=G)
        reference = T.gradients(T.sum_all(T.mul(out(), Tensor(G))), p)
        for name in p:
            assert np.array_equal(seeded[name], reference[name]), name  # bitwise
        assert all(param.grad is None for param in p.values())

    def test_wrong_shape_seed_raises(self):
        p, out = self.graph()
        with pytest.raises(GradientContractError, match="seed of shape"):
            T.gradients(out(), p, grad=np.ones((4, 2)))

    def test_non_scalar_root_without_seed_raises(self):
        p, out = self.graph()
        with pytest.raises(GradientContractError, match="must be scalar"):
            T.gradients(out(), p)
