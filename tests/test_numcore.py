from functools import reduce

import numpy as np
import pytest

from vampdiff import numcore as nc
from vampdiff.numcore import Tensor

from gradcheck import check_grads


def rand(rng, *shape):
    return Tensor(rng.uniform(-2, 2, shape), requires_grad=True)


# ---------------------------------------------------------------- backward


def test_backward_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    nc.rsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_half_sum_of_squares():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    nc.scale(nc.rsum(nc.square(x)), 0.5).backward()
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(nc.UsageError):
        nc.square(x).backward()


def test_backward_frees_interior_nodes():
    x = Tensor(np.arange(3.0), requires_grad=True)
    sq = nc.square(x)
    loss = nc.rsum(sq)
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0))
    for node in (sq, loss):
        assert node.grad is None and node._prev == ()
    with pytest.raises(nc.UsageError, match="graph already released"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0))


def test_backward_on_a_leaf_root_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    x.backward()
    x.backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    nc.rsum(x).backward()
    nc.rsum(x).backward()
    np.testing.assert_array_equal(x.grad, 2 * np.ones(2))


def test_fanout_leaf_sums_path_gradients():
    # leaf feeds two consumers; gradient is the sum of both paths
    def fn(x):
        return nc.rsum(nc.add(nc.square(x), nc.scale(x, 3.0)))

    rng = np.random.default_rng(0)
    check_grads(fn, [rand(rng, 4)])
    x = Tensor([1.0, -1.0], requires_grad=True)
    fn(x).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 3.0)


# ------------------------------------------------------------- elementwise


def test_silu_at_zero():
    assert nc.silu(Tensor([0.0])).data[0] == 0.0


def test_log1p_analytic():
    np.testing.assert_allclose(nc.log1p(Tensor([np.e - 1])).data, [1.0])


def test_log1p_domain_error():
    with pytest.raises(nc.DomainError):
        nc.log1p(Tensor([-1.5]))


def test_sqrt_domain_error():
    with pytest.raises(nc.DomainError):
        nc.sqrt(Tensor([-0.1]))


@pytest.mark.parametrize("op,unary", [
    (nc.silu, True), (nc.exp, True), (nc.square, True), (nc.negate, True),
    (nc.add, False), (nc.mul, False), (nc.sub, False),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_elementwise_gradients(op, unary):
    rng = np.random.default_rng(hash(op.__name__) % 2**32)
    for _ in range(50):
        if unary:
            check_grads(lambda a: nc.rsum(op(a)), [rand(rng, 2, 7)])
        else:
            check_grads(
                lambda a, b: nc.rsum(op(a, b)),
                [rand(rng, 2, 7), rand(rng, 2, 7)],
            )


def test_log1p_sqrt_scale_gradients():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pos = Tensor(rng.uniform(0.1, 2, (2, 7)), requires_grad=True)
        check_grads(lambda a: nc.rsum(nc.log1p(a)), [pos])
        check_grads(lambda a: nc.rsum(nc.sqrt(a)), [pos])
        check_grads(lambda a: nc.rsum(nc.scale(a, -1.7)), [rand(rng, 2, 7)])


def test_broadcast_add_gradient():
    rng = np.random.default_rng(3)
    check_grads(
        lambda a, b: nc.rsum(nc.mul(nc.add(a, b), a)),
        [rand(rng, 3, 1, 5), rand(rng, 4, 1)],
    )


def test_huber_values_and_gradient():
    x = Tensor([0.0, 0.5, 2.0, -2.0])
    np.testing.assert_allclose(nc.huber(x).data, [0.0, 0.125, 1.5, 1.5])
    rng = np.random.default_rng(5)
    check_grads(lambda a: nc.rsum(nc.huber(a)), [rand(rng, 2, 7)])


# --------------------------------------------------------------- reductions


def test_std_constant_is_zero():
    assert nc.rstd(Tensor([1.0, 1.0, 1.0, 1.0])).item() == 0.0


def test_std_population_convention():
    assert nc.rstd(Tensor([0.0, 2.0])).item() == pytest.approx(1.0)


def test_max_min_first_index_tie_rule():
    x = Tensor([3.0, 1.0, 3.0], requires_grad=True)
    nc.rmax(x).backward()
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])
    y = Tensor([1.0, 3.0, 1.0], requires_grad=True)
    nc.rmin(y).backward()
    np.testing.assert_array_equal(y.grad, [1.0, 0.0, 0.0])


def test_max_onehot_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rand(rng, 13)
        nc.rmax(x).backward()
        assert x.grad.sum() == 1.0
        assert np.count_nonzero(x.grad) == 1
        assert np.flatnonzero(x.grad)[0] == np.argmax(x.data)


def test_reduce_axes_and_gradients():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rand(rng, 3, 4, 5)
        check_grads(lambda a: nc.rsum(nc.rmean(a, axes=(1,))), [x])
        check_grads(lambda a: nc.rsum(nc.rsum(a, axes=(0, 2))), [x])
        # std away from zero-variance, unique extrema for max/min
        check_grads(lambda a: nc.rsum(nc.rstd(a, axes=2)), [x], rel_tol=1e-3)


def test_std_zero_variance_gradient_is_zero():
    x = Tensor(np.ones(5), requires_grad=True)
    nc.rstd(x).backward()
    np.testing.assert_array_equal(x.grad, np.zeros(5))


def test_empty_reduction_rejected():
    with pytest.raises(nc.DomainError):
        nc.rsum(Tensor(np.zeros((0, 3))), axes=0)


# -------------------------------------------------------------------- linear


def test_linear_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = nc.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_hand_value():
    out = nc.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([5.0]))
    np.testing.assert_array_equal(out.data, [[16.0]])


def test_linear_shape_error():
    with pytest.raises(nc.DimensionError):
        nc.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


def test_linear_gradients():
    rng = np.random.default_rng(17)
    for _ in range(50):
        check_grads(
            lambda x, w, b: nc.rsum(nc.square(nc.linear(x, w, b))),
            [rand(rng, 4, 8), rand(rng, 3, 8), rand(rng, 3)],
        )


# -------------------------------------------------------------------- conv1d


def test_conv1d_identity_kernel():
    x = Tensor([[[1.0, 2.0, 3.0]]])
    out = nc.conv1d(x, Tensor([[[1.0]]]), Tensor([0.0]))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_box_sum_stride2():
    x = Tensor([[[1.0, 1.0, 1.0, 1.0]]])
    out = nc.conv1d(x, Tensor([[[1.0, 1.0]]]), Tensor([0.0]), stride=2)
    np.testing.assert_array_equal(out.data, [[[2.0, 2.0]]])


def test_conv1d_shape_errors():
    with pytest.raises(nc.DimensionError):
        nc.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))
    with pytest.raises(nc.DimensionError):
        nc.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros(1)))


def test_conv1d_output_length():
    x = Tensor(np.zeros((1, 1, 16)))
    out = nc.conv1d(x, Tensor(np.zeros((2, 1, 5))), Tensor(np.zeros(2)),
                    stride=2, dilation=2, padding=3)
    # floor((16 + 6 - 2*4 - 1)/2) + 1 = 7
    assert out.shape == (1, 2, 7)


def test_conv1d_gradients_dilated():
    rng = np.random.default_rng(19)
    for _ in range(50):
        check_grads(
            lambda x, k, b: nc.rsum(nc.square(
                nc.conv1d(x, k, b, stride=1, dilation=2, padding=0))),
            [rand(rng, 2, 3, 16), rand(rng, 2, 3, 5), rand(rng, 2)],
        )


def test_conv1d_gradients_strided_padded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        check_grads(
            lambda x, k, b: nc.rsum(nc.square(
                nc.conv1d(x, k, b, stride=2, dilation=1, padding=2))),
            [rand(rng, 2, 2, 12), rand(rng, 3, 2, 5), rand(rng, 3)],
        )


# ----------------------------------------------------------------- groupnorm


def test_groupnorm_constant_input_zeros():
    x = Tensor(np.full((2, 4, 6), 3.7))
    out = nc.groupnorm(x, 2, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_groupnorm_statistics():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(2, 6, 10)))
    out = nc.groupnorm(x, 3, Tensor(np.ones(6)), Tensor(np.zeros(6)), eps=1e-5)
    grouped = out.data.reshape(2, 3, 20)
    assert np.abs(grouped.mean(axis=2)).max() < 1e-10
    np.testing.assert_allclose(grouped.var(axis=2), 1.0, atol=1e-3)


def test_groupnorm_divisibility_error():
    with pytest.raises(nc.DimensionError):
        nc.groupnorm(Tensor(np.zeros((1, 5, 4))), 2, Tensor(np.ones(5)), Tensor(np.zeros(5)))


def test_groupnorm_gradients():
    rng = np.random.default_rng(31)
    for _ in range(50):
        check_grads(
            lambda x, g, b: nc.rsum(nc.square(nc.groupnorm(x, 2, g, b))),
            [rand(rng, 2, 4, 6), rand(rng, 4), rand(rng, 4)],
            rel_tol=1e-4,
        )


@pytest.mark.parametrize("groups", [1, 2, 6])
def test_groupnorm_gradients_per_group_count(groups):
    rng = np.random.default_rng(53 + groups)
    w = Tensor(rng.normal(size=(2, 6, 5)))

    def fn(x, g, b):
        return nc.rsum(nc.mul(nc.silu(nc.groupnorm(x, groups, g, b)), w))

    for _ in range(20):
        check_grads(fn, [rand(rng, 2, 6, 5), rand(rng, 6), rand(rng, 6)],
                    rel_tol=1e-4)


def test_groupnorm_gradients_without_input_grad():
    rng = np.random.default_rng(59)
    x = Tensor(rng.normal(size=(2, 4, 6)))
    w = Tensor(rng.normal(size=(2, 4, 6)))

    def fn(g, b):
        return nc.rsum(nc.mul(nc.square(nc.groupnorm(x, 2, g, b)), w))

    for _ in range(20):
        check_grads(fn, [rand(rng, 4), rand(rng, 4)], rel_tol=1e-4)


def test_groupnorm_gradients_at_constant_input():
    rng = np.random.default_rng(61)
    w = Tensor(rng.normal(size=(2, 4, 6)))

    def fn(x, g, b):
        return nc.rsum(nc.mul(nc.groupnorm(x, 2, g, b), w))

    for _ in range(5):
        x = Tensor(np.full((2, 4, 6), rng.normal()))
        check_grads(fn, [x, rand(rng, 4), rand(rng, 4)], rel_tol=1e-4)


# ---------------------------------------------------------------------- rdft


def dft_matrix(L):
    n = np.arange(L)
    f = np.arange(L // 2 + 1)
    return np.exp(-2j * np.pi * np.outer(f, n) / L)


def test_rdft_dc_only():
    re, im = nc.rdft(Tensor(np.ones((1, 8))))
    np.testing.assert_allclose(re.data, [[8, 0, 0, 0, 0]], atol=1e-12)
    np.testing.assert_allclose(im.data, 0.0, atol=1e-12)


def test_rdft_single_bin_cosine():
    n = np.arange(8)
    re, im = nc.rdft(Tensor(np.cos(2 * np.pi * n / 8)[None, :]))
    assert re.data[0, 1] == pytest.approx(4.0)
    others = np.delete(re.data[0], 1)
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


@pytest.mark.parametrize("L", [4, 8, 31, 32, 257])
def test_rdft_matches_basis_matrix(L):
    rng = np.random.default_rng(L)
    x = rng.normal(size=(3, L))
    re, im = nc.rdft(Tensor(x))
    spec = x @ dft_matrix(L).T
    np.testing.assert_allclose(re.data, np.real(spec), atol=1e-8)
    np.testing.assert_allclose(im.data, np.imag(spec), atol=1e-8)


def test_rdft_gradient_through_log_magnitude():
    rng = np.random.default_rng(37)

    def fn(x):
        re, im = nc.rdft(x)
        mag = nc.sqrt(nc.add(nc.add(nc.square(re), nc.square(im)),
                             Tensor(np.full((2, 17), 1e-24))))
        return nc.rsum(nc.log1p(mag))

    for _ in range(50):
        check_grads(fn, [rand(rng, 2, 32)], rel_tol=1e-4)


# ------------------------------------------------------------ resample_linear


def test_resample_identity_bitwise():
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(size=(2, 3, 9)))
    out = nc.resample_linear(x, 9)
    assert np.array_equal(out.data, x.data)


def test_resample_midpoint():
    out = nc.resample_linear(Tensor([[[0.0, 2.0]]]), 3)
    np.testing.assert_allclose(out.data, [[[0.0, 1.0, 2.0]]])


def test_resample_gradients():
    rng = np.random.default_rng(43)
    for _ in range(50):
        check_grads(
            lambda x: nc.rsum(nc.square(nc.resample_linear(x, 11))),
            [rand(rng, 2, 2, 7)],
        )
        check_grads(
            lambda x: nc.rsum(nc.square(nc.resample_linear(x, 5))),
            [rand(rng, 2, 2, 13)],
        )


# ---------------------------------------------------------------- composite


def test_composite_graph_gradients():
    rng = np.random.default_rng(47)

    def fn(x, k, b, w, bb):
        h = nc.silu(nc.conv1d(x, k, b, padding=1))
        h = nc.rmean(h, axes=2)
        return nc.rsum(nc.square(nc.linear(h, w, bb)))

    for _ in range(10):
        check_grads(
            fn,
            [rand(rng, 2, 1, 8), rand(rng, 3, 1, 3), rand(rng, 3),
             rand(rng, 2, 3), rand(rng, 2)],
            rel_tol=1e-3,
        )


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with nc.no_grad():
        y = nc.rsum(nc.square(x))
    assert not y.requires_grad and y.is_leaf()


def every_op_terms(leaf):
    """{op name: output} of one call of every numcore op and the U-Net's
    ``rsum_slice``, on inputs ``leaf(*shape)`` with values in [0.5, 1.5]."""
    from vampdiff.model.unet import rsum_slice

    x = leaf(2, 4, 8)
    re, im = nc.rdft(x)
    terms = {
        "add": nc.add(x, x),
        "sub": nc.sub(x, leaf(4, 1)),
        "mul": nc.mul(x, x),
        "negate": nc.negate(x),
        "scale": nc.scale(x, 2.0),
        "silu": nc.silu(x),
        "exp": nc.exp(x),
        "log": nc.log(x),
        "log1p": nc.log1p(x),
        "square": nc.square(x),
        "sqrt": nc.sqrt(x),
        "clamp": nc.clamp(x, 0.8, 1.2),
        "huber": nc.huber(x),
        "reshape": nc.reshape(x, (8, 8)),
        "rsum": nc.rsum(x, axes=2, keepdims=True),
        "rmean": nc.rmean(x, axes=(0, 2)),
        "rmax": nc.rmax(x, axes=1),
        "rmin": nc.rmin(x, axes=2, keepdims=True),
        "rstd": nc.rstd(x, axes=2),
        "linear": nc.linear(nc.reshape(x, (2, 32)), leaf(3, 32), leaf(3)),
        "conv1d": nc.conv1d(x, leaf(3, 4, 3), leaf(3), padding=1),
        "groupnorm": nc.groupnorm(x, 2, leaf(4), leaf(4)),
        "rdft": nc.add(re, im),
        # t_out == T takes the copy path
        "resample_linear": nc.add(nc.rsum(nc.resample_linear(x, 5)),
                                  nc.rsum(nc.resample_linear(x, 8))),
        "rsum_slice": rsum_slice(nc.reshape(x, (2, 2, 2, 8)), 1),
    }
    assert set(terms) == set(OPS) | {"rsum_slice"}
    return terms


OPS = sorted({name for name in nc.__all__ if name.islower()} - {"no_grad"})


def every_op_loss(rng):
    """(scalar loss, leaves) whose graph goes through every numcore op and
    the U-Net's ``rsum_slice``."""
    leaves = []

    def leaf(*shape):
        leaves.append(Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True))
        return leaves[-1]

    terms = every_op_terms(leaf)
    return reduce(nc.add, (nc.rsum(t) for t in terms.values())), leaves


@pytest.mark.parametrize("op", OPS + ["rsum_slice"])
def test_every_op_keeps_its_input_dtype(op):
    """float32 inputs give a float32 forward (the no-grad decode) and
    float64 inputs a float64 one (training): no op upcasts the decode."""
    rng = np.random.default_rng(0)

    def leaf_of(dtype):
        return lambda *shape: Tensor(
            rng.uniform(0.5, 1.5, shape).astype(dtype), requires_grad=True)

    with nc.no_grad():
        out32 = every_op_terms(leaf_of(np.float32))[op]
    out64 = every_op_terms(leaf_of(np.float64))[op]
    assert out32.data.dtype == np.float32
    assert out64.data.dtype == np.float64


@pytest.mark.parametrize("data, dtype", [
    (np.arange(3), np.float64),
    ([1.0, 2.0], np.float64),
    (np.ones(2, dtype=np.float16), np.float64),
    (np.ones(2, dtype=np.float64), np.float64),
    (np.ones(2, dtype=np.float32), np.float32),
])
def test_tensor_dtype_follows_the_data(data, dtype):
    assert Tensor(data).data.dtype == dtype


def test_conv_and_linear_compute_in_their_weights_dtype():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 8)))
    k32, b32 = (Tensor(rng.normal(size=s).astype(np.float32))
                for s in ((4, 3, 3), (4,)))
    out = nc.conv1d(x, k32, b32, padding=1)
    assert out.data.dtype == np.float32
    want = nc.conv1d(Tensor(x.data.astype(np.float32)), k32, b32, padding=1)
    np.testing.assert_array_equal(out.data, want.data)
    w32 = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
    assert nc.linear(nc.reshape(x, (6, 8)), w32,
                     Tensor(np.zeros(5, np.float32))).data.dtype == np.float32


def test_gradient_accumulates_in_its_tensors_dtype():
    x32 = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    w64 = Tensor(np.arange(3.0), requires_grad=True)
    nc.rsum(nc.mul(x32, w64)).backward()
    assert x32.grad.dtype == np.float32 and w64.grad.dtype == np.float64
    np.testing.assert_array_equal(x32.grad, [0.0, 1.0, 2.0])


def _leaked_tensors(build) -> list:
    """Tensors the cycle collector finds after ``build()`` drops its graph;
    a graph freed by reference counting alone leaves none."""
    import gc

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build()
        gc.collect()
        return [o for o in gc.garbage if isinstance(o, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_graph_frees_by_refcount_alone():
    """A consumed graph must die when the root is dropped, without the
    cycle collector: nodes never hold closures referencing themselves."""
    def build():
        loss, leaves = every_op_loss(np.random.default_rng(0))
        loss.backward()
        assert all(t.grad is not None for t in leaves)

    assert not _leaked_tensors(build)


def test_unswept_graph_frees_by_refcount_alone():
    """The same without ``backward()``: a sweep drops every interior node's
    rule, so only an unswept graph shows a rule that refers to its own
    output."""
    def build():
        loss, _ = every_op_loss(np.random.default_rng(0))
        assert loss._prev

    assert not _leaked_tensors(build)
