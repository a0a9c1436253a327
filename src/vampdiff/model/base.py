"""Parameter container shared by model components, the one definition of
their conv, linear and group-norm layers, and the inference scope every
no-grad model forward runs in."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..numcore import Tensor, conv1d, groupnorm, linear, no_grad


@contextmanager
def inference(module):
    """Run ``module`` without a graph on float32 copies of its parameters.

    Inside the scope graph recording is off and each parameter's ``data``
    is a float32 copy; the float64 arrays are put back on exit, also when
    the body raises.  Conv and linear layers compute in their weights'
    dtype, so a float64 input is cast once, at the first layer.  The
    checkpoint stores float32, so a loaded model decodes from exactly the
    weights its file holds.
    """
    params = module.params()
    saved = [p.data for p in params]
    try:
        with no_grad():
            for p in params:
                p.data = p.data.astype(np.float32, copy=False)
            yield
    finally:
        for p, data in zip(params, saved):
            p.data = data


class ParamModule:
    """Holds named parameter tensors and child modules.

    A layer ``name`` owns the arrays ``name.kernel``/``name.bias`` (conv),
    ``name.weight``/``name.bias`` (linear) or ``name.gamma``/``name.beta``
    (group norm over ``self.groups`` groups). Conv and linear weights are
    drawn from N(0, 1 / fan_in) in declaration order; biases and beta start
    at zero, gamma at one.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, "ParamModule"] = {}

    def add_param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def add_child(self, name: str, child: "ParamModule") -> "ParamModule":
        self._children[name] = child
        return child

    # -- layers ----------------------------------------------------------
    def add_conv(self, name: str, rng: np.random.Generator, cin: int,
                 cout: int, k: int) -> None:
        self.add_param(f"{name}.kernel", conv_init(rng, cout, cin, k))
        self.add_param(f"{name}.bias", np.zeros(cout))

    def add_linear(self, name: str, rng: np.random.Generator, n_in: int,
                   n_out: int) -> None:
        self.add_param(f"{name}.weight",
                       rng.normal(0.0, np.sqrt(1.0 / n_in), (n_out, n_in)))
        self.add_param(f"{name}.bias", np.zeros(n_out))

    def add_norm(self, name: str, c: int) -> None:
        self.add_param(f"{name}.gamma", np.ones(c))
        self.add_param(f"{name}.beta", np.zeros(c))

    def conv(self, name: str, x: Tensor, stride: int = 1,
             dilation: int = 1) -> Tensor:
        """Conv layer ``name`` with "same" padding: for an odd kernel the
        output length is ceil(L / stride)."""
        kernel = self._params[f"{name}.kernel"]
        return conv1d(x, kernel, self._params[f"{name}.bias"], stride=stride,
                      padding=dilation * (kernel.shape[2] - 1) // 2,
                      dilation=dilation)

    def linear(self, name: str, x: Tensor) -> Tensor:
        return linear(x, self._params[f"{name}.weight"],
                      self._params[f"{name}.bias"])

    def norm(self, name: str, x: Tensor) -> Tensor:
        return groupnorm(x, self.groups, self._params[f"{name}.gamma"],
                         self._params[f"{name}.beta"])

    # -- parameters --------------------------------------------------------
    def named_params(self, prefix: str = ""):
        for name, t in self._params.items():
            yield (prefix + name, t)
        for cname, child in self._children.items():
            yield from child.named_params(prefix + cname + ".")

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def zero_grads(self) -> None:
        for t in self.params():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named_params()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_params())
        extra = sorted(set(state) - set(params))
        if extra:
            raise KeyError(f"unexpected parameter {extra[0]!r} in state")
        for name, t in params.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{arr.shape} vs {t.data.shape}")
            t.data = arr.copy()


def conv_init(rng: np.random.Generator, cout: int, cin: int, k: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(1.0 / (cin * k)), (cout, cin, k))
