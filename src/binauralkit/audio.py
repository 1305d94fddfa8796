"""Sampled-signal containers, WAV I/O, the shared text reader and atomic
file writes, framing, the Hann window and Hann STFT, and multichannel FFT
convolution.

Every channel is a C-contiguous float64 array: `AudioBuffer` copies any
other input once and proves it finite from one sum, and `read_wav`
deinterleaves a stereo file in the pass that scales it, a block of frames at
a time. Framing builds no copies: `frames` is a strided view of a channel,
and `frame_energy` (under `frame_rms`) sums squares per frame from chunk
sums. `fft_convolve` reads its N x K signal from a row source, anything with
a `shape` that slices by rows: an array, or ambisonic.EncodedRows.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SAMPLE_RATE = 16000

_PCM16_SCALE = 32768.0
# Frames per block that read_wav loads and scales: the stored samples of a
# whole long clip are never in memory beside their float64 copy, and the
# block stays under the CLI's malloc mmap threshold, so it is reused.
_READ_FRAMES = 1 << 17

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# The KSDATAFORMAT subtype GUID after its format tag, in little- and big-endian files
_GUID_TAIL = {"<": b"\0\0\x10\0\x80\0\0\xaa\0\x38\x9b\x71",
              ">": b"\0\0\0\x10\x80\0\0\xaa\0\x38\x9b\x71"}


class AudioFormatError(ValueError):
    """Raised for unreadable or unsupported audio files."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal: C-contiguous float64 samples (nominal range [-1, 1]) plus
    sample rate; other input is copied, contiguous float64 input is kept."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64, order="C")
        if samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be 1-D")
        # A finite sum proves every sample finite in one pass, with no mask;
        # a non-finite one (NaN, inf or overflow) leaves the mask to decide.
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(samples))
        if not (finite or np.all(np.isfinite(samples))):
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
    """Read a mono or stereo PCM-16 or float-32 RIFF, RIFX (big-endian) or
    RF64 WAV file, plain or EXTENSIBLE, as an AudioBuffer or BinauralBuffer.

    PCM-16 samples are scaled by 1/32768; float-32 is taken as-is. Chunks
    other than `fmt ` and `data` are skipped silently. A truncated, malformed
    or unsupported file raises AudioFormatError naming it.
    """
    try:
        with open(path, "rb") as fh:
            order, dtype, channels, rate, offset, count = _read_chunks(fh, path)
            fh.seek(offset)
            frames = count // channels
            scaled = np.empty((channels, frames))  # the scaling pass deinterleaves: one row a channel
            scale = 1 / _PCM16_SCALE if dtype == "i2" else 1.0
            for lo in range(0, frames, _READ_FRAMES):
                hi = min(lo + _READ_FRAMES, frames)
                stored = np.fromfile(fh, order + dtype, (hi - lo) * channels).reshape(-1, channels)
                with np.errstate(invalid="ignore"):  # a signalling NaN fails the finiteness check below
                    np.multiply(stored.T, scale, out=scaled[:, lo:hi], dtype=float)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise AudioFormatError(f"unreadable WAV file {path}: {exc}") from exc
    try:  # the buffers' own checks (finite samples, positive rate), naming the file
        mono = [AudioBuffer(row, rate) for row in scaled]
        return mono[0] if channels == 1 else BinauralBuffer(*mono)
    except ValueError as exc:
        raise AudioFormatError(f"unreadable WAV file {path}: {exc}") from exc


def _read_chunks(fh, path):
    """Byte order, sample type, channels, rate, offset and sample count of the
    last `data` chunk of the open WAV file `fh`, with the last `fmt ` before it,
    from one walk up to the end the RIFF header (or RF64's ds64) declares, odd
    chunks padded; a chunk past EOF raises "truncated WAV file" unread."""
    length = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(head[:4])
    if order is None or head[8:] != b"WAVE":
        raise AudioFormatError(f"not a RIFF/RIFX/RF64 WAVE file: {path}")
    riff_end = struct.unpack(order + "I", head[4:8])[0] + 8
    pos, data_size, fmt, found = 12, None, None, None
    while pos < riff_end:
        if pos + 8 > length:
            raise AudioFormatError(f"truncated WAV file {path}: EOF inside a chunk header at {pos}")
        fh.seek(pos)
        chunk_id, size = struct.unpack(order + "4sI", fh.read(8))
        if chunk_id == b"data" and data_size is not None:
            size = data_size
        if pos + 8 + size > length:
            name = chunk_id.decode("latin-1")
            raise AudioFormatError(f"truncated WAV file {path}: {name!r} chunk at byte {pos} "
                                   f"declares {size} bytes, past EOF at byte {length}")
        span = size
        if chunk_id == b"ds64" and head[:4] == b"RF64" and size >= 16:
            riff_size, data_size = struct.unpack("<QQ", fh.read(16))
            riff_end = riff_size + 8
        elif chunk_id == b"fmt ":
            fmt, span = _parse_fmt(fh.read(40), size, order, path)
        elif chunk_id == b"data":
            if fmt is None:
                raise AudioFormatError(f"{path}: 'data' chunk at byte {pos} before a 'fmt ' chunk")
            count = size // np.dtype(fmt[0]).itemsize
            if count % fmt[1]:
                raise AudioFormatError(f"{path}: 'data' chunk at byte {pos} ends inside a frame")
            found = (order, *fmt, pos + 8, count)
        pos += 8 + span + size % 2
    if found is None:
        raise AudioFormatError(f"{path} has no 'data' chunk")
    return found


def _parse_fmt(payload, size, order, path):
    """(sample type, channels, rate) of a `fmt ` chunk of `size` bytes from its
    first 40 bytes, and the bytes it spans: at least its EXTENSIBLE extension.
    PCM of 1 to 8 bits is unsigned bytes; 0 bits reads as the container width."""
    if size < 16:
        raise AudioFormatError(f"{path}: 'fmt ' chunk of {size} bytes, at least 16 needed")
    tag, channels, rate, byte_rate, block, bits = struct.unpack(order + "HHIIHH", payload[:16])
    span = size
    if tag == _EXTENSIBLE and size >= 18:
        if struct.unpack(order + "H", payload[16:18])[0] < 22:
            raise AudioFormatError(f"{path}: EXTENSIBLE 'fmt ' chunk with cbSize below 22")
        if payload[28:40] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", payload[24:28])[0]
        span = max(size, 40)
    if tag == _PCM and byte_rate != rate * block:
        raise AudioFormatError(f"{path}: PCM byte rate {byte_rate} is not rate x block align")
    width = block // channels if channels else 0
    pcm16 = tag == _PCM and width == 2 and (bits == 0 or 8 < bits <= 64)
    if not (pcm16 or tag == _FLOAT and width == 4 and bits in (32, 64)) or channels > 2:
        raise AudioFormatError(f"unsupported WAV encoding in {path}: format {tag:#x}, {channels} "
                               f"channels of {bits} bits in {width} bytes (PCM-16 or float-32)")
    return ("i2" if pcm16 else "f4", channels, rate), span


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
    """Write an AudioBuffer or BinauralBuffer as a little-endian RIFF WAV file.

    encoding is "pcm16" (round to nearest, clipped at full scale; a 16-byte
    `fmt ` chunk) or "float32" (an 18-byte `fmt ` with cbSize 0, then a `fact`
    chunk): SciPy's headers. float-32 round-trips bit-exactly through
    read_wav. Each channel is converted straight into one interleaved array of
    the target type, so no float64 copy is made. A file over 4 GiB, or over
    4 GiB/s, more than a RIFF header can declare, raises ValueError.
    """
    if isinstance(buffer, BinauralBuffer):
        channels = (buffer.left.samples, buffer.right.samples)
    else:
        channels = (buffer.samples,)
    if len(channels[0]) == 0:
        raise ValueError("refusing to write an empty buffer")
    if encoding not in ("pcm16", "float32"):
        raise ValueError(f"unknown encoding {encoding!r}")

    pcm = encoding == "pcm16"
    frames, block, rate = len(channels[0]), len(channels) * (2 if pcm else 4), buffer.sample_rate
    try:  # struct refuses a size or byte rate past the 32 bits a RIFF header holds
        fmt = struct.pack("<HHIIHH", _PCM if pcm else _FLOAT, len(channels), rate, rate * block,
                          block, 8 * block // len(channels))
        fmt, fact = (fmt, b"") if pcm else (fmt + b"\0\0", b"fact" + struct.pack("<II", 4, frames))
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data"
        size = frames * block
        header = b"RIFF" + struct.pack("<I", len(body) + 4 + size) + body + struct.pack("<I", size)
    except struct.error:
        raise ValueError(f"{path}: {frames} frames at {rate} Hz do not fit a RIFF header") from None
    data = np.empty((frames, len(channels)), "<i2" if pcm else "<f4")
    for c, samples in enumerate(channels):
        if pcm:
            samples = samples * _PCM16_SCALE
            np.clip(np.rint(samples, out=samples), -32768, 32767, out=samples)
        data[:, c] = samples
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def next_pow2(n):
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (int(n) - 1).bit_length()


_OLA_GROUP = 64  # blocks per group in fft_convolve


def fft_convolve(signal, kernel):
    """Full linear convolution of a multichannel signal with a filter bank,
    by block overlap-add.

    `signal` is an N x K row source, anything with `shape` (N, K) whose
    slice `signal[lo:hi]` gives rows lo..hi-1 (an array, or an
    ambisonic.EncodedRows, which is never built whole), and `kernel` an
    E x K x L bank; the result is an E x (N + L - 1) array whose row e is
    sum_k x[:, k] * bank[e, k]. One channel and one kernel is the N x 1
    signal with a 1 x 1 x L bank.

    The signal is cut into hops of nfft - L + 1 samples, with nfft =
    next_pow2(16 L) (less for a signal shorter than that). Each channel's
    blocks are transformed once, multiplied into the bank and summed over k
    in the frequency domain; each output row then takes one inverse
    transform per block, and the block tails overlap-add into the next hop.
    Matches direct time-domain convolution to ~1e-12 relative.
    """
    bank = np.asarray(kernel, dtype=np.float64)
    shape = signal.shape
    if len(shape) != 2 or bank.ndim != 3 or bank.shape[1] != shape[1] or bank.shape[2] == 0:
        raise ValueError("expected an N x K signal and an E x K x L bank with L >= 1")
    (n, k), (e, _, taps) = shape, bank.shape
    # A short signal fits one block; a hop of at least L - 1 samples keeps
    # each block's tail inside the next block.
    nfft = next_pow2(min(16 * taps, max(n, taps) + taps - 1))
    hop = nfft - taps + 1
    n_blocks = -(-n // hop)
    responses = np.fft.rfft(bank, nfft, axis=-1)
    out = np.zeros((e, n_blocks + 1, hop))
    # Blocks go through in groups, and each group's rows are taken from the
    # source just before its transform, so neither the spectra nor (from a
    # row source that builds its rows) the signal of a long clip sit in
    # memory all at once.
    for lo in range(0, n_blocks, _OLA_GROUP):
        hi = min(lo + _OLA_GROUP, n_blocks)
        blocks = np.asarray(signal[lo * hop : min(hi * hop, n)], dtype=np.float64)
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
