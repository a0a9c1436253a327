"""Outside-in tracer for vampdiff: times calls into each module's public
functions without changing any file of the program.

Functions are imported by name (``from ..numcore import conv1d``), so a
patch on ``vampdiff.numcore.ops`` alone would miss most calls.  The tracer
therefore replaces every binding of a traced function object in every
loaded ``vampdiff`` module, and patches methods on their classes.  Every
patch is recorded and undone by :meth:`Tracer.uninstall`.

Spans nest.  Each span name gets

* ``incl`` -- wall time of its outermost calls (a name nested inside itself
  is counted once), and
* ``self`` -- wall time minus the time of the traced spans directly
  nested in it, so ``groupnorm`` does not also count the ``reshape`` /
  ``rmean`` / ``mul`` calls it makes.

Numcore ops also get backward time: each graph node an op returns has its
``_backward`` factory wrapped so the closure it builds is timed.  A node
made by an op nested in another op (``mul`` inside ``groupnorm``) is
charged to its own op (``bwd_self``) and to the outermost op
(``bwd_root``).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# numcore op function name -> reported category
OP_CATEGORY = {
    "conv1d": "conv1d",
    "groupnorm": "groupnorm",
    "resample_linear": "resample_linear",
    "rdft": "rdft",
    "linear": "linear",
    **{name: "elementwise" for name in (
        "add", "sub", "mul", "negate", "scale", "silu", "exp", "log",
        "log1p", "square", "sqrt", "clamp", "huber")},
    **{name: "other" for name in (
        "rsum", "rmean", "rmax", "rmin", "rstd", "reshape", "rsum_slice")},
}

# (module, attribute, span name) of traced free functions; every binding
# of the same function object in any loaded vampdiff module is patched
FUNCTIONS = [
    ("vampdiff.model.prior", "kl_pooled", "model.prior.kl"),
    ("vampdiff.model.sampler", "ddim_sample", "model.sampler.ddim_sample"),
    ("vampdiff.losses", "total_loss", "losses.total_loss"),
    ("vampdiff.train", "train_step", "train.train_step"),
    ("vampdiff.train", "clip_global_norm", "train.clip"),
    ("vampdiff.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("vampdiff.checkpoint", "save_model", "checkpoint.save"),
    ("vampdiff.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("vampdiff.checkpoint", "load_model", "checkpoint.load"),
    ("vampdiff.evaluation", "reconstruction_report",
     "evaluation.reconstruction_report"),
    ("vampdiff.evaluation", "anomaly_report", "evaluation.anomaly_report"),
    ("vampdiff.evaluation", "generation_report",
     "evaluation.generation_report"),
    ("vampdiff.evaluation", "rr_consistency", "evaluation.rr_consistency"),
    ("vampdiff.signal", "bandpass", "signal.bandpass"),
    ("vampdiff.signal", "detect_peaks", "signal.detect_peaks"),
    ("vampdiff.signal", "segment", "signal.segment"),
    ("vampdiff.cli", "ingest", "cli.ingest"),
]

# (module, class, method, span name); None as name means "derive it from
# the call" (U-Net residual blocks are reported per resolution level)
METHODS = [
    ("vampdiff.numcore.tensor", "Tensor", "backward", "numcore.backward"),
    ("vampdiff.model.encoder", "Encoder", "__call__", "model.encoder.fwd"),
    ("vampdiff.model.unet", "UNet", "__call__", "model.unet.fwd"),
    ("vampdiff.model.unet", "UNet", "_film_params", "model.unet.film"),
    ("vampdiff.model.unet", "UNet", "_res_block", None),
    ("vampdiff.train", "AdamW", "step", "train.optimizer"),
]

# spans whose time the numcore coverage ratio is taken over
HOT_SPANS = ("train.train_step", "model.sampler.ddim_sample")


def _res_block_span(args, kwargs):
    # _res_block(self, name, ...) with names like "res1d0": level is name[3]
    name = args[1] if len(args) > 1 else kwargs["name"]
    return f"model.unet.level{name[3]}"


class _TimedBackward:
    """Wraps a node's backward factory so its closure is timed."""

    __slots__ = ("factory", "op", "root", "tracer")

    def __init__(self, factory, op, root, tracer):
        self.factory = factory
        self.op = op
        self.root = root
        self.tracer = tracer

    def __call__(self, node):
        closure = self.factory(node)
        tracer, op, root = self.tracer, self.op, self.root

        def run():
            t0 = time.perf_counter()
            closure()
            tracer._add_backward(op, root, time.perf_counter() - t0)
        return run


class Tracer:
    """Aggregates spans in memory; call :meth:`report` for the totals."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.bwd_self = defaultdict(float)
        self.bwd_root = defaultdict(float)
        self.nodes = 0
        self.node_bytes = 0
        self.sampler_batches: list[int] = []
        self.steps: list[dict] = []
        self.hot_time = 0.0
        self.hot_op_time = 0.0
        self._hot_depth = 0
        # open spans: [name, start, nested_time, is_op]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------
    def _enter(self, name, is_op):
        self._stack.append([name, time.perf_counter(), 0.0, is_op])
        if name in HOT_SPANS:
            self._hot_depth += 1

    def _exit(self):
        name, start, nested, is_op = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self_dur = dur - nested
        self.self_time[name] += self_dur
        if not any(s[0] == name for s in self._stack):
            self.incl[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if is_op and self._hot_depth:
            self.hot_op_time += self_dur
        if name in HOT_SPANS:
            self._hot_depth -= 1
            if not self._hot_depth:
                self.hot_time += dur
        return dur

    def _add_backward(self, op, root, dt):
        self.bwd_self[op] += dt
        self.bwd_root[root] += dt
        if self._hot_depth:
            self.hot_op_time += dt

    def _tag_nodes(self, out, op):
        outs = out if isinstance(out, tuple) else (out,)
        root = next((s[0] for s in self._stack if s[3]), op)
        for t in outs:
            factory = getattr(t, "_backward", None)
            if factory is None or isinstance(factory, _TimedBackward):
                continue
            t._backward = _TimedBackward(factory, op, root, self)
            self.nodes += 1
            # views (reshape, slices) allocate nothing of their own
            if t.data.flags.owndata:
                self.node_bytes += t.data.nbytes

    # -- wrappers ------------------------------------------------------
    def _wrap_op(self, fn, op):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(op, True)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._tag_nodes(out, op)
            return out
        return wrapper

    def _wrap_span(self, fn, name):
        tracer = self
        if name == "train.train_step":
            return self._wrap_step(fn)
        if name == "model.sampler.ddim_sample":
            return self._wrap_sampler(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name if name else _res_block_span(args, kwargs),
                          False)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def _wrap_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, opt, x0, epoch, rng):
            nodes, nbytes = tracer.nodes, tracer.node_bytes
            bwd = tracer.incl["numcore.backward"]
            tracer._enter("train.train_step", False)
            try:
                return fn(model, opt, x0, epoch, rng)
            finally:
                dur = tracer._exit()
                tracer.steps.append({
                    "epoch": int(epoch),
                    "frozen": bool(epoch <= model.config.freeze_epochs),
                    "ms": dur * 1e3,
                    "backward_ms": (tracer.incl["numcore.backward"] - bwd)
                    * 1e3,
                    "graph_nodes": tracer.nodes - nodes,
                    "activation_mb": (tracer.node_bytes - nbytes) / 2 ** 20,
                })
        return wrapper

    def _wrap_sampler(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(predict_x0, sched, z, x_T, n_steps):
            tracer.sampler_batches.append(int(x_T.shape[0]))
            tracer._enter("model.sampler.ddim_sample", False)
            try:
                return fn(predict_x0, sched, z, x_T, n_steps)
            finally:
                tracer._exit()
        return wrapper

    # -- patching ------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("vampdiff"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Patch every traced name; vampdiff.cli must already be imported."""
        ops = sys.modules["vampdiff.numcore.ops"]
        unet = sys.modules["vampdiff.model.unet"]
        for name, category in OP_CATEGORY.items():
            fn = getattr(unet if name == "rsum_slice" else ops, name)
            self._replace_everywhere(fn, self._wrap_op(fn, name))
        for mod_name, attr, span in FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(fn, self._wrap_span(fn, span))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap_span(fn, span))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def report(self) -> dict:
        """Raw totals in seconds, keyed by span / op function name."""
        return {
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "bwd_self_s": dict(self.bwd_self),
            "bwd_root_s": dict(self.bwd_root),
            "nodes": self.nodes,
            "node_bytes": self.node_bytes,
            "sampler_batches": self.sampler_batches,
            "steps": self.steps,
            "hot_s": self.hot_time,
            "hot_op_s": self.hot_op_time,
        }
