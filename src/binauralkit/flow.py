"""Toy-scale conditional flow matching along linear paths: a small
velocity-field perceptron per channel with exact reverse-mode gradients, the
dual-channel training objective (one forward and one backward pass per net
per training step, both nets fed one timestep embedding), an in-place Adam
step on one flat parameter vector, Euler sampling and a weight checkpoint
format.

The channel is an array axis: a FlowDataset holds the targets and any stored
noise as 2 x n x d arrays (left, right), so a training step gathers both
channels' items with one index, draws both channels' noise in one call and
loops over the two channels' nets. While train runs, every trained parameter
lives in one flat float64 vector (net_l's six arrays, then net_r's, or the
shared net's once): each net's w1 .. b3 are reshaped views of it, the
gradients are written into views of a second vector of the same layout, and
one AdamState steps the whole vector in place. Each net gets its own copies
back when train ends."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .audio import atomic_write

CHECKPOINT_MAGIC = b"SV2A"
CHECKPOINT_VERSION = 1
DEFAULT_EMBED_DIM = 8
DEFAULT_EULER_STEPS = 32
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_LIMIT = 1e6  # a training loss above this raises FlowDivergence

_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


class FlowDivergence(RuntimeError):
    """Training or sampling left the finite range: the loss passed the
    DIVERGENCE_LIMIT or an Euler state became non-finite."""


def timestep_embedding(t, dim):
    """Fourier encoding of a timestep in [0, 1]: interleaved
    (sin(2 pi 2^k t), cos(2 pi 2^k t)) pairs for k = 0 .. dim/2 - 1."""
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    freqs = 2.0 * np.pi * (2.0 ** np.arange(dim // 2))
    angles = t[:, None] * freqs[None, :]
    out = np.empty((len(t), dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out[0] if scalar else out


class VelocityFieldNet:
    """Two-hidden-layer tanh perceptron approximating v(x_t, t, C).

    Input is x_t concatenated with the timestep embedding and (optionally) a
    condition vector; output has the latent dimension.
    """

    def __init__(self, latent_dim, cond_dim=0, hidden_width=64,
                 embed_dim=DEFAULT_EMBED_DIM, rng_seed=0):
        if latent_dim < 1 or hidden_width < 1:
            raise ValueError("latent_dim and hidden_width must be >= 1")
        if cond_dim < 0 or embed_dim < 0:
            raise ValueError("cond_dim and embed_dim must be >= 0")
        if embed_dim % 2 != 0:
            raise ValueError("embedding dimension must be even")
        self.latent_dim = latent_dim
        self.cond_dim = cond_dim
        self.hidden_width = hidden_width
        self.embed_dim = embed_dim
        in_dim = latent_dim + embed_dim + cond_dim
        rng = np.random.default_rng(rng_seed)
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, hidden_width))
        self.b1 = np.zeros(hidden_width)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), (hidden_width, hidden_width))
        self.b2 = np.zeros(hidden_width)
        self.w3 = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), (hidden_width, latent_dim))
        self.b3 = np.zeros(latent_dim)

    def _inputs(self, x, t, cond, emb=None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if emb is None:
            t = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(x),))
            emb = timestep_embedding(t, self.embed_dim)
        parts = [x, emb]
        if self.cond_dim:
            if cond is None:
                raise ValueError("net expects a condition vector")
            cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
            if cond.shape != (len(x), self.cond_dim):
                cond = np.broadcast_to(cond, (len(x), self.cond_dim))
            parts.append(cond)
        return np.concatenate(parts, axis=1)

    def _forward_cached(self, x, t, cond, emb=None):
        z = self._inputs(x, t, cond, emb)
        a1 = z @ self.w1
        a1 += self.b1
        np.tanh(a1, out=a1)
        a2 = a1 @ self.w2
        a2 += self.b2
        np.tanh(a2, out=a2)
        v = a2 @ self.w3
        v += self.b3
        return z, a1, a2, v

    def forward(self, x, t, cond=None):
        """Velocity for a batch (B x d) or a single vector."""
        single = np.asarray(x).ndim == 1
        v = self._forward_cached(x, t, cond)[3]
        return v[0] if single else v

    def parameters(self):
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_parameters(self, params):
        for name in _PARAM_NAMES:
            setattr(self, name, np.array(params[name], dtype=np.float64))


def _loss_and_grads(net, x0, x1, t, cond, emb=None, grads=None):
    """cfm_loss and backward from one forward pass: the residual gives both.
    x0 and x1 are B x d float64 arrays with B >= 1 and t holds B timesteps,
    as _batch returns them; `emb`, when given, is timestep_embedding(t,
    net.embed_dim). `grads`, when given, maps each parameter name to an
    array of that parameter's shape, which receives its gradient; otherwise
    new arrays are returned."""
    if grads is None:
        grads = {name: np.empty_like(value) for name, value in net.parameters().items()}
    tc = t[:, None]
    xt = (1.0 - tc) * x0 + tc * x1
    z, a1, a2, v = net._forward_cached(xt, t, cond, emb)
    residual = np.subtract(v, x1 - x0, out=v)
    loss = float(np.add.reduce(np.add.reduce(residual * residual, axis=1)) / len(x0))
    dv = residual
    dv *= 2.0
    dv /= len(x0)
    np.matmul(a2.T, dv, out=grads["w3"])
    np.add.reduce(dv, axis=0, out=grads["b3"])
    # 1 - a^2 overwrites each activation once its last other use is past.
    # dv @ w3.T has inner size d: at d = 1 np.dot takes a fifth of matmul's
    # time, with equal results.
    np.square(a2, out=a2)
    np.subtract(1.0, a2, out=a2)
    dh2 = np.dot(dv, net.w3.T)
    dh2 *= a2
    np.matmul(a1.T, dh2, out=grads["w2"])
    np.add.reduce(dh2, axis=0, out=grads["b2"])
    np.square(a1, out=a1)
    np.subtract(1.0, a1, out=a1)
    dh1 = dh2 @ net.w2.T
    dh1 *= a1
    np.matmul(z.T, dh1, out=grads["w1"])
    np.add.reduce(dh1, axis=0, out=grads["b1"])
    return loss, grads


def _batch(x0, x1, t):
    """Endpoints as B x d float64 arrays and B float64 timesteps (a scalar t
    is broadcast); an empty batch or endpoints of two shapes raise ValueError."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    if len(x0) == 0:
        raise ValueError("empty batch")
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch between endpoints")
    return x0, x1, np.broadcast_to(np.asarray(t, dtype=np.float64), (len(x0),))


def cfm_loss(net, x0, x1, t, cond=None):
    """Mean over the batch of ||v(x_t, t, C) - (x1 - x0)||^2."""
    return _loss_and_grads(net, *_batch(x0, x1, t), cond)[0]


def backward(net, x0, x1, t, cond=None):
    """Exact reverse-mode gradients of cfm_loss w.r.t. every net parameter."""
    return _loss_and_grads(net, *_batch(x0, x1, t), cond)[1]


class AdamState:
    """Adaptive-moment gradient descent state for one flat float64 parameter
    vector, with the fixed hyperparameters ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPS: the first and second moments and one scratch vector, each as
    long as the parameter vector."""

    def __init__(self, size):
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._tmp = np.empty(size)

    def update(self, p, g, learning_rate):
        """One step on the parameter vector p, in place, from the gradient
        vector g, which is left overwritten."""
        self.step_count += 1
        bias1 = 1.0 - ADAM_BETA1**self.step_count
        bias2 = 1.0 - ADAM_BETA2**self.step_count
        tmp = self._tmp
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # p - (lr m_hat) / (sqrt(v_hat) + eps) in that operation order.
        self.m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
        self.m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        self.v *= ADAM_BETA2
        self.v += tmp
        np.divide(self.m, bias1, out=g)
        g *= learning_rate
        np.divide(self.v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        g /= tmp
        p -= g


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    steps: int = 2000
    rng_seed: int = 0
    hidden_width: int = 64
    shared_weights: bool = False

    def __post_init__(self):
        if (not 0.0 <= self.learning_rate < np.inf or self.batch_size < 1
                or self.steps < 0):
            raise ValueError("invalid training hyperparameters")


@dataclass(frozen=True)
class FlowDataset:
    """Targets x1 and optional stored noise x0 as 2 x n x d arrays, one row
    of n items per channel (left, right), plus an optional n x c condition
    matrix that both channels share.

    When x0 is stored, items keep a fixed noise pairing across epochs;
    otherwise training draws fresh standard-normal noise per step.
    """

    x1: np.ndarray
    x0: np.ndarray = None
    cond: np.ndarray = None

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=np.float64)
        if x1.ndim != 3 or len(x1) != 2:
            raise ValueError("channel targets must be paired")
        if x1.shape[1] == 0:
            raise ValueError("dataset holds no items: training needs at least one target pair")
        object.__setattr__(self, "x1", x1)
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=np.float64)
            if x0.shape != x1.shape:
                raise ValueError("stored noise must match target shapes")
            object.__setattr__(self, "x0", x0)
        if self.cond is not None:
            cond = np.atleast_2d(np.asarray(self.cond, dtype=np.float64))
            if len(cond) != x1.shape[1]:
                raise ValueError("condition rows must match targets")
            object.__setattr__(self, "cond", cond)

    def __len__(self):
        return self.x1.shape[1]

    @property
    def latent_dim(self):
        return self.x1.shape[2]


def constant_target_dataset(n_items, latent_dim, target, rng_seed=0):
    """Toy translation task: stored noise x0 ~ N(0, I) paired with
    x1 = x0 + target, so the exact velocity field is the constant target."""
    x0 = np.random.default_rng(rng_seed).standard_normal((2, n_items, latent_dim))
    return FlowDataset(x1=x0 + target, x0=x0)


def make_nets(latent_dim, cond_dim, cfg):
    """Left/right velocity nets: independent weights by default, or one
    shared net with a channel-flag condition input when cfg.shared_weights."""
    extra = 1 if cfg.shared_weights else 0
    net_l = VelocityFieldNet(
        latent_dim, cond_dim + extra, cfg.hidden_width, rng_seed=cfg.rng_seed
    )
    if cfg.shared_weights:
        return net_l, net_l
    net_r = VelocityFieldNet(
        latent_dim, cond_dim, cfg.hidden_width, rng_seed=cfg.rng_seed + 1
    )
    return net_l, net_r


def _views(flat, nets):
    """Per net, a dict mapping each parameter name to a view of the vector
    `flat` in that parameter's shape, laid out net after net in _PARAM_NAMES
    order."""
    views, start = [], 0
    for net in nets:
        params = {}
        for name, value in net.parameters().items():
            params[name] = flat[start:start + value.size].reshape(value.shape)
            start += value.size
        views.append(params)
    return views


def _channels(net_l, net_r, cond, rows):
    """Per channel (left, right), the net that models it and that net's
    condition: `cond` (None or `rows` rows) for two nets, or for one shared
    net `cond` with one more column, +1 for the left channel and -1 for the
    right. train and sample_channels both take the channels from here."""
    if net_l is not net_r:
        return (net_l, cond), (net_r, cond)
    flags = (np.full((rows, 1), f) for f in (1.0, -1.0))
    return tuple((net_l, flag if cond is None else np.concatenate([cond, flag], axis=1))
                 for flag in flags)


def train(net_l, net_r, dataset, cfg):
    """Single-threaded, seed-deterministic dual-channel training loop.

    Each step draws a batch of target pairs, fresh standard-normal noise per
    channel and one shared timestep per pair, embeds the timesteps once, then
    runs one forward and one backward pass per net and one adaptive-moment
    update of the flat parameter vector both nets' weights are views of (a
    shared net's gradient is the sum of its two channels'). Raises
    FlowDivergence before any update if the summed loss is non-finite or
    exceeds DIVERGENCE_LIMIT. Whether it returns or raises, each net ends
    holding its own copies of its weights.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    shared = net_l is net_r
    nets = (net_l,) if shared else (net_l, net_r)
    p = np.concatenate([value for net in nets for value in net.parameters().values()],
                       axis=None)
    g = np.empty_like(p)
    g_r = np.empty_like(g) if shared else g
    # Per channel, the views its gradients go to.
    channel_grads = (_views(g, nets)[0], _views(g_r, nets)[-1])
    adam = AdamState(p.size)
    trace = np.empty(cfg.steps)
    try:
        for net, params in zip(nets, _views(p, nets)):
            vars(net).update(params)
        for step in range(cfg.steps):
            idx = rng.integers(0, len(dataset), cfg.batch_size)
            x1 = dataset.x1[:, idx]
            x0 = rng.standard_normal(x1.shape) if dataset.x0 is None else dataset.x0[:, idx]
            t = rng.uniform(0.0, 1.0, cfg.batch_size)
            cond = None if dataset.cond is None else dataset.cond[idx]
            emb = {dim: timestep_embedding(t, dim) for dim in {net.embed_dim for net in nets}}
            loss = 0.0
            channels = _channels(net_l, net_r, cond, cfg.batch_size)
            for c, ((net, net_cond), grads) in enumerate(zip(channels, channel_grads)):
                loss += _loss_and_grads(net, x0[c], x1[c], t, net_cond, emb[net.embed_dim],
                                        grads)[0]
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                raise FlowDivergence(f"training diverged at step {step}: loss {loss}")
            trace[step] = loss

            if shared:
                g += g_r
            adam.update(p, g, cfg.learning_rate)
    finally:
        for net in nets:
            net.set_parameters(net.parameters())
    return trace


def sample_euler(net, x0, cond=None, steps=DEFAULT_EULER_STEPS):
    """Integrate the velocity field from t=0 to 1 with fixed-step Euler."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64)
    for k in range(steps):
        x = x + net.forward(x, k / steps, cond) / steps
        if not np.all(np.isfinite(x)):
            raise FlowDivergence(f"non-finite state at Euler step {k}")
    return x


def sample_channels(net_l, net_r, x0, steps):
    """sample_euler per channel from 2 x n x d noise x0, each channel with
    the net and channel flag train fits it with; returns a 2 x n x d array."""
    channels = _channels(net_l, net_r, None, x0.shape[1])
    return np.stack([sample_euler(net, x0[c], net_cond, steps)
                     for c, (net, net_cond) in enumerate(channels)])


def save_checkpoint(path, nets):
    """Write net weights: magic, format version, per-net dims and parameter
    arrays as little-endian float64."""
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(nets)))
        for net in nets:
            fh.write(
                struct.pack(
                    "<IIII", net.latent_dim, net.cond_dim, net.hidden_width, net.embed_dim
                )
            )
            for name in _PARAM_NAMES:
                arr = np.ascontiguousarray(getattr(net, name), dtype="<f8")
                fh.write(arr.tobytes())


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated checkpoint")
    return data


def _param_bytes(latent_dim, cond_dim, hidden_width, embed_dim):
    """Bytes of float64 parameters save_checkpoint writes for a net of these dims."""
    in_dim = latent_dim + embed_dim + cond_dim
    count = (in_dim + 1) * hidden_width + (hidden_width + 1) * (hidden_width + latent_dim)
    return 8 * count


def load_checkpoint(path):
    """Read the nets written by save_checkpoint; a truncated file, bytes
    after the last net, no net at all or dims VelocityFieldNet rejects raise
    ValueError naming the path. Each net's header dims are checked against
    the bytes left in the file before it is built."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a velocity-field checkpoint")
        version, count = struct.unpack("<II", _read_exact(fh, 8, path))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if count == 0:
            raise ValueError(f"{path}: checkpoint holds no nets")
        nets = []
        for _ in range(count):
            dims = struct.unpack("<IIII", _read_exact(fh, 16, path))
            if _param_bytes(*dims) > size - fh.tell():
                raise ValueError(f"{path}: truncated checkpoint")
            try:
                net = VelocityFieldNet(*dims)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            params = {}
            for name, value in net.parameters().items():
                raw = _read_exact(fh, 8 * value.size, path)
                params[name] = np.frombuffer(raw, dtype="<f8").reshape(value.shape)
            net.set_parameters(params)
            nets.append(net)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last net")
    return nets


def save_loss_trace(path, trace):
    with atomic_write(path, newline="") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(trace):
            fh.write(f"{step},{loss:.12g}\n")
