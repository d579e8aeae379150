import concurrent.futures
import itertools
import math
import re
import threading

import numpy as np
import pytest

from sslcrop import tensor as T
from sslcrop.tensor import GradientContractError, ShapeMismatch, Tensor
import reference_ops as R


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
        out = R.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_product(self):
        out = R.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
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
        out = R.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(out - expect).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 3\)"):
            R.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = R.softmax_rows(Tensor([0.0, 0.0, 0.0])).data
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_large_values_do_not_overflow(self):
        out = R.softmax_rows(Tensor([1000.0, 1000.0])).data
        assert np.allclose(out, [0.5, 0.5])

    def test_closed_form_ratio(self):
        out = R.softmax_rows(Tensor([0.0, np.log(3.0)])).data
        assert np.abs(out - [0.25, 0.75]).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = R.softmax_rows(Tensor(rng.normal(size=(7, 11)) * 5)).data
        assert np.all(out >= 0)
        assert np.abs(out.sum(axis=1) - 1).max() < 1e-12


def layer_norm(x, eps=1e-5):
    """The standardisation the attention and feed-forward nodes end with, on a copy of
    x, with unit gain and zero bias."""
    x = np.array(x, dtype=np.float64)
    d = x.shape[-1]
    return T._normalize(x, Tensor(np.ones(d)), Tensor(np.zeros(d)), eps, -1)[0]


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = layer_norm([[4.0, 4.0, 4.0]])
        assert np.abs(out).max() < 1e-9

    def test_two_point_standardization(self):
        out = layer_norm([[1.0, 3.0]], eps=1e-15)
        assert np.abs(out - [[-1.0, 1.0]]).max() < 1e-6

    def test_against_direct_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8)) * 4
        out = layer_norm(x, eps=1e-10)
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.var(axis=1) - 1).max() < 1e-9
        direct = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-10)
        assert np.abs(out - direct).max() < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = T.gradients(R.sum_all(p), {"p": p})
        assert np.array_equal(grads["p"], np.ones((2, 3)))

    def test_stop_gradient_blocks_exactly(self):
        p = params_of(p=[1.0, 2.0], q=[3.0, 4.0])
        root = R.sum_all(T.mul(T.stop_gradient(p["p"]), p["q"]))
        grads = T.gradients(root, p)
        assert np.array_equal(grads["p"], np.zeros(2))  # bitwise zero
        assert np.array_equal(grads["q"], np.array([1.0, 2.0]))

    def test_shared_subexpression_accumulates_once_per_use(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        root = T.add(R.sum_all(T.mul(a, a)), R.sum_all(a))
        grads = T.gradients(root, {"a": a})
        assert np.allclose(grads["a"], 2 * a.data + 1)

    def test_non_scalar_root_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GradientContractError):
            T.gradients(T.relu(p), {"p": p})

    def test_unreachable_parameter_gets_zeros(self):
        p = params_of(a=[1.0], b=[2.0])
        grads = T.gradients(R.sum_all(p["a"]), p)
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
            h = T.relu(R.add_bias(R.matmul(x, p["w1"]), p["b1"]))
            y = T.batch_norm(R.matmul(h, p["w2"]), p["gain"], p["bias"])[0]
            y = T.l2_normalize(R.softmax_rows(y))
            return T.mean_all(T.sum_last(T.mul(y, target)))

        grads = T.gradients(loss(), p)
        for name, param in p.items():
            fd = finite_difference(loss, param)
            assert max_rel_err(grads[name], fd) < 1e-6, name

    def test_same_graph_twice_is_bitwise_identical(self):
        rng = np.random.default_rng(9)
        p = params_of(w=rng.normal(size=(3, 3)))
        x = Tensor(rng.normal(size=(2, 3)))
        g1 = T.gradients(R.sum_all(R.softmax_rows(R.matmul(x, p["w"]))), p)
        g2 = T.gradients(R.sum_all(R.softmax_rows(R.matmul(x, p["w"]))), p)
        assert np.array_equal(g1["w"], g2["w"])


class TestMaxAxis:
    def test_tie_routes_to_first(self):
        a = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        grads = T.gradients(R.sum_all(T.max_axis(a, axis=1)), {"a": a})
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
    """The fused nodes against central differences, like the composite check, and
    bitwise against the graphs they replace."""

    def check(self, p, loss):
        grads = T.gradients(loss(), p)
        for name, param in p.items():
            assert max_rel_err(grads[name], finite_difference(loss, param)) < 1e-6, name

    @pytest.mark.parametrize("seed", range(2))
    def test_linear_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = params_of(x=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(4, 5)), b=rng.normal(size=5))
        target = Tensor(rng.normal(size=(2, 3, 5)))
        self.check(p, lambda: R.sum_all(T.mul(T.relu(T.linear(p["x"], p["w"], p["b"])), target)))

    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(4)
        x, w, b = Tensor(rng.normal(size=(3, 2, 4))), Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=6))
        assert np.abs(T.linear(x, w, b).data - R.add_bias(R.matmul(x, w), b).data).max() < 1e-12

    @pytest.mark.parametrize("seed", range(2))
    def test_attention_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 4
        p = params_of(
            x=rng.normal(size=(2, 5, d)),
            **{f"w{c}": rng.normal(size=(d, d)) for c in "qkvo"},
            **{f"b{c}": rng.normal(size=d) for c in "qkvo"},
            gain=rng.normal(size=d) + 1.5,
            bias=rng.normal(size=d),
        )
        target = Tensor(rng.normal(size=(2, 5, d)))

        def loss():
            params = [p[f"{kind}{c}"] for c in "qkvo" for kind in "wb"]
            return R.sum_all(T.mul(T.attention(p["x"], *params, p["gain"], p["bias"], n_heads=2), target))

        self.check(p, loss)

    @staticmethod
    def node_params(node, rng, b=2, t=3, k=4, f=5, values=None):
        """Inputs of `node` (x first), each drawn by values(name, shape) (normal draws
        by default)."""
        values = values or (lambda name, shape: rng.normal(size=shape))
        if node == "embed":
            shapes = {"x": (b, t, k), "w": (k, f), "b": (f,)}
        elif node == "feed_forward":
            shapes = {"x": (b, t, k), "w1": (k, f), "b1": (f,), "w2": (f, k), "b2": (k,), "gain": (k,), "bias": (k,)}
        else:
            shapes = {"x": (b, t, k), **{f"{kind}{c}": (k, k)[kind == "b":] for c in "qkvo" for kind in "wb"},
                      "gain": (k,), "bias": (k,)}
        return params_of(**{name: values(name, shape) for name, shape in shapes.items()})

    @staticmethod
    def attention_params(p):
        """wq, bq, ..., wo, bo, and a head count that divides d."""
        return [p[f"{kind}{c}"] for c in "qkvo" for kind in "wb"], math.gcd(p["x"].shape[-1], 4)

    @classmethod
    def fused(cls, node, p, pos):
        if node == "embed":
            return T.embed(p["x"], p["w"], p["b"], 1.5, pos)
        if node == "feed_forward":
            return T.feed_forward(p["x"], p["w1"], p["b1"], p["w2"], p["b2"], p["gain"], p["bias"])
        params, heads = cls.attention_params(p)
        return T.attention(p["x"], *params, p["gain"], p["bias"], n_heads=heads)

    @classmethod
    def unfused(cls, node, p, pos):
        """The graphs the fused nodes replace: linear -> scale -> add(pos); linear ->
        relu -> linear -> add -> layer_norm; attention as one node that keeps its
        context -> layer_norm."""
        if node == "embed":
            y = T.scale(T.linear(p["x"], p["w"], p["b"]), 1.5)
            return T.add(y, Tensor(np.ascontiguousarray(np.broadcast_to(pos, y.shape))))
        if node == "feed_forward":
            hidden = T.relu(T.linear(p["x"], p["w1"], p["b1"]))
            y = T.add(p["x"], T.linear(hidden, p["w2"], p["b2"]))
        else:
            params, heads = cls.attention_params(p)
            y = R.attention(p["x"], *params, n_heads=heads)
        return R.layer_norm(y, p["gain"], p["bias"])

    @pytest.mark.parametrize("node", ["embed", "feed_forward"])
    @pytest.mark.parametrize("seed", range(2))
    def test_embed_and_feed_forward_match_finite_differences(self, node, seed):
        rng = np.random.default_rng(seed)
        p = self.node_params(node, rng)
        pos = rng.normal(size=(3, 5 if node == "embed" else 4))
        target = Tensor(rng.normal(size=self.fused(node, p, pos).shape))
        self.check(p, lambda: R.sum_all(T.mul(self.fused(node, p, pos), target)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("node", ["embed", "feed_forward", "attention"])
    @pytest.mark.parametrize("b, t, k, f", [(5, 7, 13, 37), (16, 14, 64, 256)])
    def test_embed_and_feed_forward_bitwise_equal_the_unfused_graph(self, node, b, t, k, f):
        """-0.0, +-inf and NaN in x, the weights and the incoming gradient, all read-only.
        Attention mixes every token of a series, and one special in a projection weight
        makes every score NaN, so there the specials sit in one token of every other
        series (a different token each), in x and in the gradient."""
        rng = np.random.default_rng(b + f)
        every = 2 * t + 1 if node == "attention" else 3

        def draw(name, shape):
            special = len(shape) > 1 and (node != "attention" or name == "x")
            return read_only(with_specials(rng, shape, every) if special else rng.normal(size=shape))

        p = self.node_params(node, rng, b, t, k, f, values=draw)
        pos = read_only(rng.normal(size=(t, f if node == "embed" else k)))
        out, want = self.fused(node, p, pos), self.unfused(node, p, pos)
        assert bits_equal(out.data, want.data)
        g = with_specials(rng, out.shape, every=2 * t + 1 if node == "attention" else 2)
        g[np.isnan(g)] = PAYLOAD_NAN  # unlike a generated NaN, so the order of a sum shows
        g = read_only(g)
        grads, want_grads = T.gradients(out, p, grad=g), T.gradients(want, p, grad=g)
        for name in p:
            assert bits_equal(grads[name], want_grads[name]), name

    @pytest.mark.parametrize("node, wrong", [("embed", "w"), ("embed", "pos"), ("embed", "x"),
                                             ("feed_forward", "w1"), ("feed_forward", "w2"),
                                             ("feed_forward", "b2"), ("feed_forward", "gain")])
    def test_embed_and_feed_forward_name_wrong_shapes(self, node, wrong):
        p = self.node_params(node, np.random.default_rng(0))
        pos = np.zeros((3, 5 if node == "embed" else 4))
        if wrong == "pos":
            pos = np.zeros((4, 5))
        elif wrong == "x":
            p["x"] = Tensor(np.zeros((6, 4)))
        else:
            p[wrong] = Tensor(np.zeros(p[wrong].shape[:-1] + (p[wrong].shape[-1] + 1,)))
        shape = re.escape(str(pos.shape if wrong == "pos" else p[wrong].shape))
        with pytest.raises(ShapeMismatch, match=f"{node} needs.*{shape}"):
            self.fused(node, p, pos)


class TestSingleUseTape:
    def graph(self):
        rng = np.random.default_rng(8)
        p = params_of(w=rng.normal(size=(3, 3)), b=rng.normal(size=3))
        hidden = T.relu(T.linear(Tensor(rng.normal(size=(4, 3))), p["w"], p["b"]))
        return p, hidden, R.sum_all(R.softmax_rows(hidden))

    def test_interior_nodes_are_released(self):
        p, hidden, root = self.graph()
        assert hidden._parents
        T.gradients(root, p)
        for node in (hidden, root):
            assert node._parents == ()
        assert "grad" not in Tensor.__slots__  # gradients live in the pass, never on a tensor

    def test_consumed_root_raises(self):
        p, _, root = self.graph()
        T.gradients(root, p)
        with pytest.raises(GradientContractError, match="consumed"):
            T.gradients(root, p)

    def test_new_root_over_consumed_node_raises(self):
        p, hidden, root = self.graph()
        T.gradients(root, p)
        with pytest.raises(GradientContractError, match="consumed"):
            T.gradients(R.sum_all(hidden), p)

    def test_constants_record_no_tape(self):
        out = T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_batch_norm_eval_refuses_a_gradient(self):
        p = params_of(x=np.ones((2, 3)), gain=np.ones(3), bias=np.zeros(3))
        out = T.batch_norm_eval(p["x"], p["gain"], p["bias"], np.zeros(3), np.ones(3))
        with pytest.raises(GradientContractError, match="batch_norm_eval"):
            T.gradients(R.sum_all(out), p)


class TestConcurrentPasses:
    """Gradients live in each backward pass, so passes through graphs that share
    leaves may run in two threads at once (as pre-training's two views do)."""

    def test_two_threads_over_shared_params_equal_the_serial_calls(self):
        rng = np.random.default_rng(12)
        p = params_of(w=rng.normal(size=(16, 16)), b=rng.normal(size=16))
        xs = [rng.normal(size=(256, 16)) for _ in range(2)]

        def root(x):  # w and b are used twice, so each pass sums two terms into their grads
            h = T.relu(T.linear(Tensor(x), p["w"], p["b"]))
            return R.sum_all(R.softmax_rows(T.linear(h, p["w"], p["b"])))

        serial = [T.gradients(root(x), p) for x in xs]
        barrier = threading.Barrier(2)

        def backward(x):
            graph = root(x)
            barrier.wait()  # both passes start together
            return T.gradients(graph, p)

        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for _ in range(20):
                for got, want in zip(pool.map(backward, xs), serial):
                    for name in p:
                        assert np.array_equal(got[name], want[name]), name  # bitwise


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
        reference = T.gradients(R.sum_all(T.mul(out(), Tensor(G))), p)
        for name in p:
            assert np.array_equal(seeded[name], reference[name]), name  # bitwise
        assert "grad" not in Tensor.__slots__

    def test_wrong_shape_seed_raises(self):
        p, out = self.graph()
        with pytest.raises(GradientContractError, match="seed of shape"):
            T.gradients(out(), p, grad=np.ones((4, 2)))

    def test_non_scalar_root_without_seed_raises(self):
        p, out = self.graph()
        with pytest.raises(GradientContractError, match="must be scalar"):
            T.gradients(out(), p)


def reference_relu(x, g):
    """relu and its backward as first written: a mask, np.where and g * mask."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), g * mask


def reference_normalize(x, gain, bias, eps, axis, g):
    """_normalize's forward and backward as first written, one new array per operation."""
    d = x.shape[-1]
    mean = x.mean(axis=axis, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gx_hat = g * gain
    gx = inv * (
        gx_hat
        - gx_hat.mean(axis=axis, keepdims=True)
        - xhat * (gx_hat * xhat).mean(axis=axis, keepdims=True)
    )
    return xhat * gain + bias, mean, var, gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def with_specials(rng, shape, every=3):
    """Normal draws with -0.0, +0.0, +-inf and NaN planted in every `every`-th row."""
    x = rng.normal(size=shape)
    flat = x.reshape(-1, shape[-1])
    for row in flat[::every]:
        picks = rng.choice(shape[-1], size=5, replace=False)
        row[picks] = (-0.0, 0.0, np.inf, -np.inf, np.nan)
    flat[1::every, :2] = -0.0  # rows whose only specials are signed zeros
    return x


PAYLOAD_NAN = np.array(0x7FF8_0000_0000_0001, dtype=np.uint64).view(np.float64)


def read_only(a):
    a.setflags(write=False)
    return a


def bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestElementwiseKernels:
    """relu and layer/batch norm equal their first formulas bit for bit, NaN, +-0 and
    +-inf included, and never write into their input or an incoming gradient (a
    gradient may alias another node's: `add` passes one array to both parents)."""

    @pytest.mark.parametrize("shape", [(5, 7, 37), (16, 14, 64), (11,)])
    def test_relu(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = read_only(with_specials(rng, shape))
        g = read_only(with_specials(rng, shape, every=2))
        a = Tensor(x, requires_grad=True)
        out = T.relu(a)
        want_out, want_grad = reference_relu(x, g)
        assert bits_equal(out.data, want_out)
        assert bits_equal(T.gradients(out, {"a": a}, grad=g)["a"], want_grad)

    def test_relu_maps_negative_zero_to_positive_zero(self):
        for n in range(1, 40):  # every position of a SIMD loop's blocks and its tail
            out = T.relu(Tensor(np.full(n, -0.0))).data
            assert bits_equal(out, np.zeros(n)), n

    @pytest.mark.parametrize("kind, shape", [("layer", (5, 7, 37)), ("layer", (16, 14, 64)),
                                             ("batch", (53, 21)), ("batch", (256, 64))])
    def test_normalize(self, kind, shape):
        rng = np.random.default_rng(shape[0])
        d = shape[-1]
        x = read_only(with_specials(rng, shape))
        g = read_only(with_specials(rng, shape, every=4))
        gain = read_only(np.concatenate([[-0.0, np.inf], rng.normal(size=d - 2)]))
        bias = read_only(rng.normal(size=d))
        p = params_of(gain=gain, bias=bias)
        a = Tensor(x, requires_grad=True)
        if kind == "layer":  # the layer norm the attention and feed-forward nodes end with
            out, xhat, inv, mean, var = T._normalize(x.copy(), p["gain"], p["bias"], 1e-5, -1)
            grads = T._normalize_backward(g, xhat, inv, p["gain"], -1)
            want = reference_normalize(x, gain, bias, 1e-5, -1, g)
        else:
            out, mean, var = T.batch_norm(a, p["gain"], p["bias"])
            grads = T.gradients(out, {"a": a, **p}, grad=g).values()
            out, want = out.data, reference_normalize(x, gain, bias, 1e-5, 0, g)
            mean, var = mean[None], var[None]
        assert bits_equal(out, want[0])
        assert bits_equal(mean, want[1]) and bits_equal(var, want[2])
        for name, got, expected in zip(("a", "gain", "bias"), grads, want[3:]):
            assert bits_equal(got, expected), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_max_equals_max_over_the_last_axis(self, dtype):
        """Every special (NaN, +-inf, +-0) at every key position of 14, beside every pair
        of specials, and every row of three drawn from specials and finite values."""
        rng = np.random.default_rng(7)
        specials = (np.nan, np.inf, -np.inf, 0.0, -0.0)
        a = rng.normal(size=(len(specials) ** 3, 14, 14))
        keys = np.arange(14)
        for i, (s, u, v) in enumerate(itertools.product(specials, repeat=3)):
            a[i, keys, keys] = s  # row j holds s at key j,
            a[i, keys, (keys + 1) % 14] = u  # u after it
            a[i, keys, (keys + 5) % 14] = v  # and v further on
        rows = np.array(list(itertools.product(specials + (1.0, -2.5), repeat=3)))
        for x in (a, rows):
            x = read_only(x.astype(dtype))
            assert bits_equal(T._row_max(x), x.max(axis=-1, keepdims=True))
