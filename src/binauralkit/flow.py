"""Toy-scale conditional flow matching: linear interpolation paths, a small
velocity-field perceptron per channel with exact reverse-mode gradients, the
dual-channel training objective (one forward and one backward pass per net
per training step, both nets fed one timestep embedding), an Adam step on
flat moment vectors, Euler sampling and a weight checkpoint format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .audio import atomic_write

CHECKPOINT_MAGIC = b"SV2A"
CHECKPOINT_VERSION = 1
DEFAULT_EMBED_DIM = 8
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


def interpolate(x0, x1, t):
    """x_t = (1 - t) x0 + t x1, elementwise."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch between endpoints")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 1 and x0.ndim == 2:
        t = t[:, None]
    return (1.0 - t) * x0 + t * x1


def target_velocity(x0, x1):
    """Ground-truth velocity of the linear path: x1 - x0 (t-independent)."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch between endpoints")
    return x1 - x0


class VelocityFieldNet:
    """Two-hidden-layer tanh perceptron approximating v(x_t, t, C).

    Input is x_t concatenated with the timestep embedding and (optionally) a
    condition vector; output has the latent dimension.
    """

    def __init__(self, latent_dim, cond_dim=0, hidden_width=64,
                 embed_dim=DEFAULT_EMBED_DIM, rng_seed=0):
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
        a1 = np.tanh(z @ self.w1 + self.b1)
        a2 = np.tanh(a1 @ self.w2 + self.b2)
        v = a2 @ self.w3 + self.b3
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


def _loss_and_grads(net, x0, x1, t, cond, emb=None):
    """cfm_loss and backward from one forward pass: the residual gives both.
    `emb`, when given, is timestep_embedding(t, net.embed_dim)."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    if len(x0) == 0:
        raise ValueError("empty batch")
    xt = interpolate(x0, x1, np.asarray(t, dtype=np.float64))
    z, a1, a2, v = net._forward_cached(xt, t, cond, emb)
    residual = v - target_velocity(x0, x1)
    dv = 2.0 * residual / len(x0)
    grads = {"w3": a2.T @ dv, "b3": dv.sum(axis=0)}
    dh2 = (dv @ net.w3.T) * (1.0 - a2**2)
    grads["w2"] = a1.T @ dh2
    grads["b2"] = dh2.sum(axis=0)
    dh1 = (dh2 @ net.w2.T) * (1.0 - a1**2)
    grads["w1"] = z.T @ dh1
    grads["b1"] = dh1.sum(axis=0)
    return float(np.mean(np.sum(residual**2, axis=1))), grads


def cfm_loss(net, x0, x1, t, cond=None):
    """Mean over the batch of ||v(x_t, t, C) - (x1 - x0)||^2."""
    return _loss_and_grads(net, x0, x1, t, cond)[0]


def backward(net, x0, x1, t, cond=None):
    """Exact reverse-mode gradients of cfm_loss w.r.t. every net parameter."""
    return _loss_and_grads(net, x0, x1, t, cond)[1]


class AdamState:
    """Adaptive-moment gradient descent state for one parameter set, with
    the fixed hyperparameters ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    The first and second moments are flat float64 vectors laid out at
    construction as (key, slice, shape) per parameter, so one update is a
    handful of whole-vector operations however many arrays the set holds.
    """

    def __init__(self, params):
        self.step_count = 0
        self.layout = []
        size = 0
        for key, value in params.items():
            n = np.size(value)
            self.layout.append((key, slice(size, size + n), np.shape(value)))
            size += n
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, params, grads, learning_rate):
        """New parameters from one step; params and grads are dicts keyed as
        at construction and are left unmodified."""
        self.step_count += 1
        bias1 = 1.0 - ADAM_BETA1**self.step_count
        bias2 = 1.0 - ADAM_BETA2**self.step_count
        p = np.concatenate([params[key] for key, _, _ in self.layout], axis=None)
        g = np.concatenate([grads[key] for key, _, _ in self.layout], axis=None)
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # p - (lr m_hat) / (sqrt(v_hat) + eps) in that operation order, with
        # g and tmp as the only scratch vectors: each further full-length
        # temporary shows in the training run's peak memory.
        self.m *= ADAM_BETA1
        tmp = (1.0 - ADAM_BETA1) * g
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
        return {key: p[span].reshape(shape) for key, span, shape in self.layout}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    steps: int = 2000
    rng_seed: int = 0
    hidden_width: int = 64
    shared_weights: bool = False

    def __post_init__(self):
        if self.learning_rate < 0 or self.batch_size < 1 or self.steps < 0:
            raise ValueError("invalid training hyperparameters")


@dataclass(frozen=True)
class FlowDataset:
    """Paired per-channel targets plus an optional shared condition matrix.

    When x0_left/x0_right are stored, items keep a fixed noise pairing across
    epochs; otherwise training draws fresh standard-normal noise per step.
    """

    x1_left: np.ndarray
    x1_right: np.ndarray
    cond: np.ndarray = None
    x0_left: np.ndarray = None
    x0_right: np.ndarray = None

    def __post_init__(self):
        x1_left = np.atleast_2d(np.asarray(self.x1_left, dtype=np.float64))
        x1_right = np.atleast_2d(np.asarray(self.x1_right, dtype=np.float64))
        if x1_left.shape != x1_right.shape:
            raise ValueError("channel targets must be paired")
        object.__setattr__(self, "x1_left", x1_left)
        object.__setattr__(self, "x1_right", x1_right)
        if self.cond is not None:
            cond = np.atleast_2d(np.asarray(self.cond, dtype=np.float64))
            if len(cond) != len(x1_left):
                raise ValueError("condition rows must match targets")
            object.__setattr__(self, "cond", cond)
        if (self.x0_left is None) != (self.x0_right is None):
            raise ValueError("stored noise must cover both channels")
        if self.x0_left is not None:
            x0_left = np.atleast_2d(np.asarray(self.x0_left, dtype=np.float64))
            x0_right = np.atleast_2d(np.asarray(self.x0_right, dtype=np.float64))
            if x0_left.shape != x1_left.shape or x0_right.shape != x1_right.shape:
                raise ValueError("stored noise must match target shapes")
            object.__setattr__(self, "x0_left", x0_left)
            object.__setattr__(self, "x0_right", x0_right)

    def __len__(self):
        return len(self.x1_left)

    @property
    def latent_dim(self):
        return self.x1_left.shape[1]


def constant_target_dataset(n_items, latent_dim, target, rng_seed=0):
    """Toy translation task: stored noise x0 ~ N(0, I) paired with
    x1 = x0 + target, so the exact velocity field is the constant target."""
    rng = np.random.default_rng(rng_seed)
    x0_l = rng.standard_normal((n_items, latent_dim))
    x0_r = rng.standard_normal((n_items, latent_dim))
    return FlowDataset(
        x1_left=x0_l + target,
        x1_right=x0_r + target,
        x0_left=x0_l,
        x0_right=x0_r,
    )


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


def _channel_cond(cond, flag, shared, batch):
    if not shared:
        return cond
    flag_col = np.full((batch, 1), flag)
    return flag_col if cond is None else np.concatenate([cond, flag_col], axis=1)


def train(net_l, net_r, dataset, cfg):
    """Single-threaded, seed-deterministic dual-channel training loop.

    Each step draws a batch of target pairs, fresh standard-normal noise per
    channel and one shared timestep per pair, embeds the timesteps once, then
    runs one forward pass, one backward pass and one adaptive-moment update
    per net. Raises FlowDivergence before any update if the summed loss is
    non-finite or exceeds DIVERGENCE_LIMIT.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    shared = net_l is net_r
    adam_l = AdamState(net_l.parameters())
    adam_r = adam_l if shared else AdamState(net_r.parameters())
    trace = np.empty(cfg.steps)
    for step in range(cfg.steps):
        idx = rng.integers(0, len(dataset), cfg.batch_size)
        x1_l, x1_r = dataset.x1_left[idx], dataset.x1_right[idx]
        cond = None if dataset.cond is None else dataset.cond[idx]
        if dataset.x0_left is not None:
            x0_l, x0_r = dataset.x0_left[idx], dataset.x0_right[idx]
        else:
            x0_l = rng.standard_normal(x1_l.shape)
            x0_r = rng.standard_normal(x1_r.shape)
        t = rng.uniform(0.0, 1.0, cfg.batch_size)
        cond_l = _channel_cond(cond, 1.0, shared, cfg.batch_size)
        cond_r = _channel_cond(cond, -1.0, shared, cfg.batch_size)

        emb_l = timestep_embedding(t, net_l.embed_dim)
        emb_r = (emb_l if net_r.embed_dim == net_l.embed_dim
                 else timestep_embedding(t, net_r.embed_dim))

        loss_l, grads_l = _loss_and_grads(net_l, x0_l, x1_l, t, cond_l, emb_l)
        loss_r, grads_r = _loss_and_grads(net_r, x0_r, x1_r, t, cond_r, emb_r)
        loss = loss_l + loss_r
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise FlowDivergence(f"training diverged at step {step}: loss {loss}")
        trace[step] = loss

        if shared:
            grads = {k: grads_l[k] + grads_r[k] for k in grads_l}
            net_l.set_parameters(adam_l.update(net_l.parameters(), grads, cfg.learning_rate))
        else:
            net_l.set_parameters(adam_l.update(net_l.parameters(), grads_l, cfg.learning_rate))
            net_r.set_parameters(adam_r.update(net_r.parameters(), grads_r, cfg.learning_rate))
    return trace


def sample_euler(net, x0, cond=None, steps=32):
    """Integrate the velocity field from t=0 to 1 with fixed-step Euler."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64)
    for k in range(steps):
        x = x + net.forward(x, k / steps, cond) / steps
        if not np.all(np.isfinite(x)):
            raise FlowDivergence(f"non-finite state at Euler step {k}")
    return x


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
    """Read the nets written by save_checkpoint; a truncated file or bytes
    after the last net raise ValueError naming the path. Each net's header
    dims are checked against the bytes left in the file before it is built."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a velocity-field checkpoint")
        version, count = struct.unpack("<II", _read_exact(fh, 8, path))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        nets = []
        for _ in range(count):
            dims = struct.unpack("<IIII", _read_exact(fh, 16, path))
            if _param_bytes(*dims) > size - fh.tell():
                raise ValueError(f"{path}: truncated checkpoint")
            net = VelocityFieldNet(*dims)
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
