"""Sampled-signal containers, WAV I/O, atomic file writes, framing, STFT and
FFT convolution."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

DEFAULT_SAMPLE_RATE = 16000

_PCM16_SCALE = 32768.0


class AudioFormatError(ValueError):
    """Raised for unreadable or unsupported audio files."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal: float64 samples (nominal range [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise ValueError("AudioBuffer samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class BinauralBuffer:
    """Left/right channel pair with matching sample rate and length."""

    left: AudioBuffer
    right: AudioBuffer

    def __post_init__(self):
        if self.left.sample_rate != self.right.sample_rate:
            raise ValueError("channel sample rates differ")
        if len(self.left) != len(self.right):
            raise ValueError("channel lengths differ")

    def __len__(self):
        return len(self.left)

    @property
    def sample_rate(self):
        return self.left.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """T x F complex STFT frames with the analysis parameters that made them."""

    frames: np.ndarray
    frame_size: int
    hop: int
    window: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or frames.shape[1] != self.frame_size // 2 + 1:
            raise ValueError("spectrogram must be T x (frame_size/2 + 1)")
        object.__setattr__(self, "frames", frames)


def read_wav(path):
    """Read a mono or stereo WAV file.

    PCM-16 samples are scaled by 1/32768; float-32 is taken as-is. Returns an
    AudioBuffer for mono files, a BinauralBuffer for stereo.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise AudioFormatError(f"unreadable WAV file {path}: {exc}") from exc

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise AudioFormatError(
            f"unsupported WAV encoding {data.dtype} in {path} (PCM-16 or float-32 only)"
        )

    if samples.ndim == 2 and samples.shape[1] > 2:
        raise AudioFormatError(f"{path} has {samples.shape[1]} channels, at most 2 supported")
    try:  # the buffers' own checks (finite samples, positive rate), naming the file
        if samples.ndim == 1:
            return AudioBuffer(samples, rate)
        if samples.shape[1] == 1:
            return AudioBuffer(samples[:, 0], rate)
        return BinauralBuffer(AudioBuffer(samples[:, 0], rate), AudioBuffer(samples[:, 1], rate))
    except ValueError as exc:
        raise AudioFormatError(f"unreadable WAV file {path}: {exc}") from exc


@contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Open a temporary file beside `path` for writing and move it onto
    `path` with os.replace when the block ends; if the block raises, the
    temporary file is removed and an existing `path` is left untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_wav(path, buffer, encoding="float32"):
    """Write an AudioBuffer or BinauralBuffer as WAV.

    encoding is "pcm16" (round to nearest, clipped at full scale) or
    "float32". float-32 round-trips bit-exactly through read_wav.
    """
    if isinstance(buffer, BinauralBuffer):
        data = np.stack([buffer.left.samples, buffer.right.samples], axis=1)
        rate = buffer.sample_rate
    else:
        data = buffer.samples
        rate = buffer.sample_rate
    if data.size == 0:
        raise ValueError("refusing to write an empty buffer")

    if encoding == "pcm16":
        data = np.clip(np.rint(data * _PCM16_SCALE), -32768, 32767).astype(np.int16)
    elif encoding == "float32":
        data = data.astype(np.float32)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    with atomic_write(path, "wb") as fh:
        wavfile.write(fh, rate, data)


def next_pow2(n):
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (int(n) - 1).bit_length()


def fft_convolve(signal, kernel):
    """Full linear convolution by block overlap-add, for one channel or a
    multichannel filter bank.

    - AudioBuffer of N samples and a 1-D kernel of L taps: returns an
      AudioBuffer of N + L - 1 samples.
    - N x K array, or N x K row source, and an E x K x L bank: returns an
      E x (N + L - 1) array whose row e is sum_k x[:, k] * bank[e, k]. A row
      source stands in for an array that is never built whole: it has
      `shape` (N, K) and `rows(lo, hi)`, which returns rows lo..hi-1.

    The first form is the E = K = 1 case of the second. The signal is cut
    into hops of nfft - L + 1 samples, with nfft = next_pow2(16 L) (less for
    a signal shorter than that). Each channel's blocks are transformed once,
    multiplied into the bank and summed over k in the frequency domain; each
    output row then takes one inverse transform per block, and the block
    tails overlap-add into the next hop. Matches direct time-domain
    convolution to ~1e-12 relative.
    """
    if isinstance(signal, AudioBuffer):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 1 or len(kernel) == 0:
            raise ValueError("kernel must be a non-empty 1-D sequence")
        x = signal.samples[:, None]
        y = _overlap_add(lambda lo, hi: x[lo:hi], x.shape, kernel[None, None, :])
        return AudioBuffer(y[0], signal.sample_rate)
    bank = np.asarray(kernel, dtype=np.float64)
    if hasattr(signal, "rows"):
        rows, shape = signal.rows, signal.shape
    else:
        x = np.asarray(signal, dtype=np.float64)
        rows, shape = (lambda lo, hi: x[lo:hi]), x.shape
    if len(shape) != 2 or bank.ndim != 3 or bank.shape[1] != shape[1] or bank.shape[2] == 0:
        raise ValueError("expected an N x K signal and an E x K x L bank with L >= 1")
    return _overlap_add(rows, shape, bank)


_OLA_GROUP = 64  # blocks per group in _overlap_add


def _overlap_add(rows, shape, bank):
    n, k = shape
    e, _, taps = bank.shape
    # A short signal fits one block; a hop of at least L - 1 samples keeps
    # each block's tail inside the next block.
    nfft = next_pow2(min(16 * taps, max(n, taps) + taps - 1))
    hop = nfft - taps + 1
    n_blocks = -(-n // hop)
    responses = np.fft.rfft(bank, nfft, axis=-1)
    out = np.zeros((e, n_blocks + 1, hop))
    # Blocks go through in groups, and each group's rows are taken from the
    # source just before its transform, so neither the spectra nor (from a
    # row source) the signal of a long clip sit in memory all at once.
    for lo in range(0, n_blocks, _OLA_GROUP):
        hi = min(lo + _OLA_GROUP, n_blocks)
        blocks = rows(lo * hop, min(hi * hop, n))
        if len(blocks) < (hi - lo) * hop:  # the last group ends inside a hop
            blocks = np.concatenate([blocks, np.zeros(((hi - lo) * hop - len(blocks), k))])
        # B x K x hop: a channel-major row source gives each transform a
        # contiguous row.
        spectra = np.fft.rfft(blocks.reshape(hi - lo, hop, k).transpose(0, 2, 1), nfft, axis=-1)
        y = np.fft.irfft(np.einsum("bkf,ekf->ebf", spectra, responses), nfft, axis=-1)
        out[:, lo:hi] += y[:, :, :hop]
        out[:, lo + 1 : hi + 1, : taps - 1] += y[:, :, hop:]
    return out.reshape(e, -1)[:, : n + taps - 1]


_WINDOWS = {
    "rectangular": lambda n: np.ones(n),
    "hann": lambda n: 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n),
    "hamming": lambda n: 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n),
}


def window_samples(name, frame_size):
    try:
        return _WINDOWS[name](frame_size)
    except KeyError:
        raise ValueError(f"unknown window {name!r}") from None


def frames(samples, size, hop):
    """T x size copy of the full frames of `samples`, frame t starting at
    sample t * hop; tail samples that do not fill a frame are dropped."""
    t = 0 if len(samples) < size else 1 + (len(samples) - size) // hop
    return samples[np.arange(size)[None, :] + hop * np.arange(t)[:, None]]


def stft(signal, frame_size=512, hop=160, window="hann"):
    """Short-time Fourier transform (one-sided), dropping the tail frame.

    Frame t, bin f holds sum_n w(n) x(t*hop + n) exp(-2j pi f n / frame_size).
    """
    if hop < 1:
        raise ValueError("hop must be >= 1")
    x = frames(signal.samples, frame_size, hop)
    if len(x) == 0:
        raise ValueError("signal shorter than one frame")
    w = window_samples(window, frame_size)
    return Spectrogram(np.fft.rfft(x * w[None, :], frame_size, axis=1), frame_size, hop, window)


def frame_rms(signal, frame_size, hop):
    """Per-frame RMS values; short tail frames are dropped."""
    if frame_size < 1:
        raise ValueError("frame_size must be >= 1")
    return np.sqrt(np.mean(frames(signal.samples, frame_size, hop) ** 2, axis=1))
