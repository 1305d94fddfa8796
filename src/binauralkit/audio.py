"""Sampled-signal containers, WAV I/O, the shared text reader and atomic
file writes, framing, the Hann window and Hann STFT, and multichannel FFT
convolution.

Framing builds no copies: `frames` is a strided view of the signal, and
`frame_energy` (under `frame_rms`) sums squares per frame from chunk sums.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

DEFAULT_SAMPLE_RATE = 16000

_PCM16_SCALE = 32768.0

# warnings.catch_warnings swaps process-wide state; concurrent reads hold this
# lock so that they cannot restore each other's filters.
_WARNINGS_LOCK = threading.Lock()


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


def read_wav(path):
    """Read a mono or stereo WAV file.

    PCM-16 samples are scaled by 1/32768; float-32 is taken as-is. Returns an
    AudioBuffer for mono files, a BinauralBuffer for stereo. A file that ends
    before its RIFF header or one of its chunks says raises AudioFormatError,
    where SciPy only warns, reads short or first allocates the declared size;
    SciPy's other warnings, such as a skipped unknown chunk, pass on.
    """
    with _WARNINGS_LOCK, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", wavfile.WavFileWarning)
        try:
            with open(path, "rb") as fh:
                _check_chunk_sizes(fh, path)
                fh.seek(0)
                rate, data = wavfile.read(fh)
        except (FileNotFoundError, AudioFormatError):
            raise
        except Exception as exc:
            raise AudioFormatError(f"unreadable WAV file {path}: {exc}") from exc
    for w in caught:
        if issubclass(w.category, wavfile.WavFileWarning) and "EOF prematurely" in str(w.message):
            raise AudioFormatError(f"truncated WAV file {path}: {w.message}")
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

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


def _check_chunk_sizes(fh, path):
    """Raise AudioFormatError naming the file and the chunk when a chunk of
    the open WAV file `fh` declares more bytes than the file holds.

    The 8-byte chunk headers after "WAVE" are walked up to the end the RIFF
    header declares, each chunk padded to an even size; an RF64 file takes
    its RIFF and data sizes from its ds64 chunk. Anything else malformed is
    left to wavfile.read.
    """
    length = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(head[:4])
    if order is None or head[8:] != b"WAVE":
        return
    riff_end = struct.unpack(order + "I", head[4:8])[0] + 8
    data_size = None
    pos = 12
    while pos < riff_end and pos + 8 <= length:
        fh.seek(pos)
        chunk_id, size = struct.unpack(order + "4sI", fh.read(8))
        if chunk_id == b"data" and data_size is not None:
            size = data_size
        if pos + 8 + size > length:
            raise AudioFormatError(
                f"truncated WAV file {path}: {chunk_id.decode('latin-1')!r} chunk at byte "
                f"{pos} declares {size} bytes, past EOF at byte {length}"
            )
        if chunk_id == b"ds64" and head[:4] == b"RF64" and size >= 16:
            riff_size, data_size = struct.unpack("<QQ", fh.read(16))
            riff_end = riff_size + 8
        pos += 8 + size + size % 2


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


def _line_and_column(before):
    """1-based line and column of the character that follows `before`.

    Lines are counted as str.splitlines counts them, so a file with CR or
    CRLF endings is numbered as the loaders that split it number it.
    """
    lines = (before + "x").splitlines()
    return len(lines), len(lines[-1])


def read_text(path):
    """The whole text of a UTF-8 file with its line endings kept, as
    open(path, encoding="utf-8", newline="") reads it; a byte sequence that
    is not UTF-8 raises ValueError naming the file and its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, _ = _line_and_column(raw[: exc.start].decode("utf-8"))
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None


def read_json(path):
    """The JSON value in a UTF-8 file (see read_text); a parse error raises
    ValueError naming the file, line and column, counted as read_text
    counts them."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line, column = _line_and_column(text[: exc.pos])
        raise ValueError(f"{path}: not valid JSON (line {line} column {column})") from None


def write_wav(path, buffer, encoding="float32"):
    """Write an AudioBuffer or BinauralBuffer as WAV.

    encoding is "pcm16" (round to nearest, clipped at full scale) or
    "float32". float-32 round-trips bit-exactly through read_wav. Each
    channel is converted straight into one interleaved array of the target
    type, so no float64 copy of the whole buffer is made.
    """
    if isinstance(buffer, BinauralBuffer):
        channels = (buffer.left.samples, buffer.right.samples)
    else:
        channels = (buffer.samples,)
    if len(channels[0]) == 0:
        raise ValueError("refusing to write an empty buffer")
    if encoding not in ("pcm16", "float32"):
        raise ValueError(f"unknown encoding {encoding!r}")

    dtype = np.int16 if encoding == "pcm16" else np.float32
    data = np.empty((len(channels[0]), len(channels)), dtype)
    for c, samples in enumerate(channels):
        if encoding == "pcm16":
            samples = samples * _PCM16_SCALE
            np.clip(np.rint(samples, out=samples), -32768, 32767, out=samples)
        data[:, c] = samples
    with atomic_write(path, "wb") as fh:
        wavfile.write(fh, buffer.sample_rate, data if len(channels) > 1 else data[:, 0])


def next_pow2(n):
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (int(n) - 1).bit_length()


def fft_convolve(signal, kernel):
    """Full linear convolution of a multichannel signal with a filter bank,
    by block overlap-add.

    `signal` is an N x K array, or an N x K row source, and `kernel` an
    E x K x L bank; the result is an E x (N + L - 1) array whose row e is
    sum_k x[:, k] * bank[e, k]. A row source stands in for an array that is
    never built whole: it has `shape` (N, K) and `rows(lo, hi)`, which
    returns rows lo..hi-1. One channel and one kernel is the N x 1 signal
    with a 1 x 1 x L bank.

    The signal is cut into hops of nfft - L + 1 samples, with nfft =
    next_pow2(16 L) (less for a signal shorter than that). Each channel's
    blocks are transformed once, multiplied into the bank and summed over k
    in the frequency domain; each output row then takes one inverse
    transform per block, and the block tails overlap-add into the next hop.
    Matches direct time-domain convolution to ~1e-12 relative.
    """
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


def hann(n):
    """Periodic Hann window of n samples: 0.5 - 0.5 cos(2 pi i / n)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frames(samples, size, hop):
    """T x size read-only view of the full frames of `samples`, frame t
    starting at sample t * hop; tail samples that do not fill a frame are
    dropped. Indexing rows with a mask copies only those rows."""
    if len(samples) < size:
        return np.empty((0, size), dtype=samples.dtype)
    return sliding_window_view(samples, size)[::hop]


def frame_energy(samples, size, hop):
    """Sum of squares of each frame of frames(samples, size, hop), without
    building the frames.

    x^2 is summed in chunks of g = gcd(size, hop) samples, and frame t adds
    the size/g chunks that start at chunk t * hop/g. There is no running sum
    to subtract from, so nothing cancels: a frame of digital silence gives
    exactly 0, and every frame is within rounding of its direct sum.
    """
    if size < 1:
        raise ValueError("frame_size must be >= 1")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if len(samples) < size:
        return np.zeros(0)
    t = 1 + (len(samples) - size) // hop
    g = math.gcd(size, hop)
    chunks = samples[: (t - 1) * hop + size].reshape(-1, g)
    sums = np.einsum("ij,ij->i", chunks, chunks)
    step, span = hop // g, (t - 1) * (hop // g) + 1
    energy = sums[:span:step].copy()
    for j in range(1, size // g):
        energy += sums[j : j + span : step]
    return energy


def stft(signal, frame_size=512, hop=160):
    """Hann-windowed short-time Fourier transform (one-sided) of an
    AudioBuffer, dropping the tail frame: a T x (frame_size/2 + 1) complex
    array whose frame t, bin f holds
    sum_n hann(n) x(t*hop + n) exp(-2j pi f n / frame_size).
    """
    if hop < 1:
        raise ValueError("hop must be >= 1")
    x = frames(signal.samples, frame_size, hop)
    if len(x) == 0:
        raise ValueError("signal shorter than one frame")
    return np.fft.rfft(x * hann(frame_size), frame_size, axis=1)


def frame_rms(signal, frame_size, hop):
    """Per-frame RMS values; short tail frames are dropped."""
    return np.sqrt(frame_energy(signal.samples, frame_size, hop) / frame_size)
