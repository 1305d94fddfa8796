import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from binauralkit import audio
from binauralkit.audio import (
    AudioBuffer,
    AudioFormatError,
    BinauralBuffer,
    fft_convolve,
    frame_energy,
    frame_rms,
    frames,
    read_wav,
    stft,
    write_wav,
)
from conftest import GUID_TAIL, channel_columns, chunk, fmt_chunk, riff, rf64, sine_buffer
from oracles import direct_convolve, direct_dft_frame, hann_window, oracle_read_wav


class TestWavIO:
    def test_silence_roundtrip_pcm16(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, AudioBuffer(np.zeros(16000)), "pcm16")
        loaded = read_wav(path)
        assert isinstance(loaded, AudioBuffer)
        assert loaded.sample_rate == 16000
        assert len(loaded) == 16000
        assert np.all(loaded.samples == 0.0)

    def test_stereo_identical_channels(self, tmp_path, rng):
        x = rng.standard_normal(4000) * 0.3
        path = tmp_path / "dup.wav"
        write_wav(path, BinauralBuffer(AudioBuffer(x), AudioBuffer(x)), "float32")
        loaded = read_wav(path)
        assert isinstance(loaded, BinauralBuffer)
        np.testing.assert_array_equal(loaded.left.samples, loaded.right.samples)

    def test_pcm16_full_scale_value(self, tmp_path):
        path = tmp_path / "full.wav"
        wavfile.write(path, 16000, np.array([32767, -32768], dtype=np.int16))
        loaded = read_wav(path)
        assert loaded.samples[0] == pytest.approx(32767 / 32768)
        assert loaded.samples[1] == -1.0

    def test_float32_bit_exact(self, tmp_path, rng):
        x = (rng.standard_normal(1000) * 0.5).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, AudioBuffer(x), "float32")
        np.testing.assert_array_equal(read_wav(path).samples, x)

    def test_pcm16_quantization_bound(self, tmp_path):
        path = tmp_path / "half.wav"
        write_wav(path, AudioBuffer(np.full(100, 0.5)), "pcm16")
        assert abs(read_wav(path).samples[0] - 0.5) <= 2.0**-15

    def test_binaural_two_channel_file(self, tmp_path, rng):
        left = AudioBuffer(rng.standard_normal(500) * 0.1)
        right = AudioBuffer(rng.standard_normal(500) * 0.1)
        path = tmp_path / "st.wav"
        write_wav(path, BinauralBuffer(left, right), "float32")
        rate, raw = wavfile.read(path)
        assert raw.shape == (500, 2)

    def test_too_many_channels_rejected(self, tmp_path):
        path = tmp_path / "quad.wav"
        wavfile.write(path, 16000, np.zeros((100, 4), dtype=np.float32))
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_truncated_file_names_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.full(16000, 0.25)), "pcm16")
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)
        with pytest.raises(AudioFormatError, match=r"truncated WAV file .*cut\.wav.*EOF"):
            read_wav(path)

    def test_unknown_chunk_skipped(self, tmp_path):
        path = tmp_path / "extra.wav"
        write_wav(path, AudioBuffer(np.full(100, 0.25)), "pcm16")
        raw = bytearray(path.read_bytes())
        raw += b"abcd" + (4).to_bytes(4, "little") + b"\0" * 4
        raw[4:8] = (len(raw) - 8).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        loaded = read_wav(path)  # a warning would fail the test: filterwarnings = ["error"]
        np.testing.assert_array_equal(loaded.samples, np.full(100, 0.25))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(tmp_path / "empty.wav", AudioBuffer(np.zeros(0)))


class TestChunkSizes:
    """A chunk that declares more bytes than the file holds is rejected
    before it is read or its declared size allocated; valid layouts load,
    big-endian RIFX files as their RIFF twins do."""

    PCM = np.array([1000, -2000, 3000, -4000, 5000, -6000], dtype="<i2")

    @pytest.mark.parametrize(
        "offset, name",
        [(40, "data"), (16, "fmt "), (60, "LIST")],
        ids=["data", "fmt", "after_data"],
    )
    def test_size_past_end_of_file_rejected(self, tmp_path, offset, name):
        raw = bytearray(riff(fmt_chunk(1, 1, 16), chunk(b"data", self.PCM.tobytes()),
                             chunk(b"LIST", b"INFO")))
        raw[offset : offset + 4] = struct.pack("<I", 0xFF000190)
        path = tmp_path / "huge.wav"
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            message = f"^truncated WAV file {re.escape(str(path))}: '{name}' chunk"
            with pytest.raises(AudioFormatError, match=message):
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rf64_data_size_past_end_of_file_rejected(self, tmp_path):
        path = tmp_path / "huge64.wav"
        path.write_bytes(rf64(np.zeros(6, dtype="<f4"), 1 << 40))
        with pytest.raises(AudioFormatError, match=r"'data' chunk at byte 72 declares 1099511627776"):
            read_wav(path)

    @pytest.mark.parametrize(
        "layout",
        ["odd_chunk_before_data", "unpadded_odd_chunk_at_end", "bytes_after_riff", "extensible"],
    )
    def test_valid_layouts_load(self, tmp_path, layout):
        data = chunk(b"data", self.PCM.tobytes())
        fmt = fmt_chunk(1, 1, 16)
        raw = {
            "odd_chunk_before_data": riff(fmt, chunk(b"JUNK", b"abc"), data),
            "unpadded_odd_chunk_at_end": riff(fmt, data, chunk(b"LIST", b"abc"))[:-1],
            "bytes_after_riff": riff(fmt, data) + b"trailing bytes no chunk reads",
            "extensible": riff(
                fmt_chunk(0xFFFE, 1, 16, struct.pack("<HHI", 22, 16, 4) + b"\x01\0\0\0" + GUID_TAIL),
                data,
            ),
        }[layout]
        if layout == "unpadded_odd_chunk_at_end":
            raw = raw[:4] + struct.pack("<I", len(raw) - 8) + raw[8:]
        path = tmp_path / "valid.wav"
        path.write_bytes(raw)
        np.testing.assert_array_equal(read_wav(path).samples, self.PCM / 32768.0)

    def test_rf64_loads(self, tmp_path):
        samples = np.linspace(-0.5, 0.5, 6).astype("<f4")
        path = tmp_path / "small64.wav"
        path.write_bytes(rf64(samples, samples.nbytes))
        np.testing.assert_array_equal(read_wav(path).samples, samples)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_big_endian_rifx_loads_as_its_riff_twin(self, tmp_path, encoding, channels):
        tag, bits, dtype = (1, 16, "i2") if encoding == "pcm16" else (3, 32, "f4")
        values = self.PCM if encoding == "pcm16" else self.PCM / 32768.0
        loaded = {}
        for order in "<>":
            data = chunk(b"data", values.astype(order + dtype).tobytes(), order)
            path = tmp_path / f"{'RIFF' if order == '<' else 'RIFX'}.wav"
            path.write_bytes(riff(fmt_chunk(tag, channels, bits, order=order), data, order=order))
            loaded[order] = channel_columns(read_wav(path))
        assert loaded["<"].shape == (len(values) // channels, channels)
        np.testing.assert_array_equal(loaded[">"], loaded["<"])


_PCM6 = TestChunkSizes.PCM
_FMT16 = fmt_chunk(1, 1, 16)
_DATA = chunk(b"data", _PCM6.tobytes())
_EXTENSIBLE16 = fmt_chunk(0xFFFE, 1, 16, struct.pack("<HHI", 22, 16, 4) + b"\x01\0\0\0" + GUID_TAIL)


def _fmt_with_size(size, payload):
    return b"fmt " + struct.pack("<I", size) + payload


class TestWavRules:
    """Layouts that read_wav rejects, naming the file, where SciPy rejects
    them too (with read_wav's PCM-16/float-32 and 1-2 channel rules), and
    layouts that both load alike."""

    REJECTED = {
        "not_riff": b"FORM" + riff(_FMT16, _DATA)[4:],
        "data_before_fmt": riff(_DATA, _FMT16),
        "fmt_shorter_than_16": riff(_fmt_with_size(14, _FMT16[8:22]), _DATA),
        "no_data": riff(_FMT16, chunk(b"LIST", b"INFO")),
        "stereo_data_ends_inside_frame": riff(fmt_chunk(1, 2, 16), chunk(b"data", _PCM6[:5].tobytes())),
        "three_channels": riff(fmt_chunk(1, 3, 16), _DATA),
        "pcm8": riff(fmt_chunk(1, 1, 8), chunk(b"data", bytes(6))),
        "pcm24": riff(fmt_chunk(1, 1, 24), chunk(b"data", bytes(18))),
        "float64": riff(fmt_chunk(3, 1, 64), chunk(b"data", bytes(48))),
        "pcm_byte_rate_off": riff(_FMT16[:16] + struct.pack("<I", 1) + _FMT16[20:], _DATA),
        "extensible_cb_size_20": riff(_EXTENSIBLE16[:24] + b"\x14" + _EXTENSIBLE16[25:], _DATA),
        "extensible_other_guid": riff(_EXTENSIBLE16[:-12] + bytes(12), _DATA),
    }
    LOADED = {
        "last_data_chunk_wins": riff(_FMT16, chunk(b"data", _PCM6[::-1].tobytes()), _DATA),
        # SciPy reads the 22-byte extension that cbSize declares past the chunk's size.
        "extensible_declaring_18_bytes": riff(_fmt_with_size(18, _EXTENSIBLE16[8:]), _DATA),
    }

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_as_by_scipy(self, tmp_path, name):
        path = tmp_path / "bad.wav"
        path.write_bytes(self.REJECTED[name])
        with pytest.raises(AudioFormatError, match=re.escape(str(path))) as caught:
            read_wav(path)
        assert "truncated" not in str(caught.value)
        with pytest.raises(Exception):
            oracle_read_wav(path)

    @pytest.mark.parametrize("name", sorted(LOADED))
    def test_loaded_as_by_scipy(self, tmp_path, name):
        path = tmp_path / "good.wav"
        path.write_bytes(self.LOADED[name])
        rate, samples = oracle_read_wav(path)
        loaded = read_wav(path)
        assert loaded.sample_rate == rate
        np.testing.assert_array_equal(loaded.samples, _PCM6 / 32768.0)
        np.testing.assert_array_equal(loaded.samples, samples[:, 0])


class TestBuffers:
    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinauralBuffer(AudioBuffer(np.zeros(10), 16000), AudioBuffer(np.zeros(10), 48000))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinauralBuffer(AudioBuffer(np.zeros(10)), AudioBuffer(np.zeros(11)))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(10), 0)

    def test_strided_input_stored_as_contiguous_copy(self, rng):
        interleaved = rng.standard_normal((500, 2))
        before = interleaved.copy()
        for column in (interleaved[:, 1], interleaved[::-1, 0]):
            samples = AudioBuffer(column).samples
            assert samples.flags.c_contiguous and samples.dtype == np.float64
            assert not np.shares_memory(samples, interleaved)
            np.testing.assert_array_equal(samples, column)
        np.testing.assert_array_equal(interleaved, before)

    def test_contiguous_float64_input_kept(self, rng):
        x = rng.standard_normal(500)
        assert AudioBuffer(x).samples is x

    @pytest.mark.parametrize(
        "samples",
        [[0.0, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [np.inf, -np.inf], [1e308, 1e308, np.nan]],
        ids=["nan", "inf", "minus_inf", "both_infs", "nan_after_overflow"],
    )
    def test_non_finite_sample_rejected(self, samples):
        with pytest.raises(ValueError, match="must be finite"):
            AudioBuffer(np.array(samples))

    def test_finite_samples_whose_sum_overflows_kept(self):
        # The sum is infinite, so the element-wise check decides.
        x = np.array([1e308, 1e308, -1e308])
        assert AudioBuffer(x).samples is x


class TestChannelLayout:
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_read_channels_are_contiguous_float64(self, tmp_path, rng, channels, dtype, frames=1001):
        data = rng.standard_normal((frames, channels)) * 0.3
        data = (data * 32767).astype(np.int16) if dtype == np.int16 else data.astype(np.float32)
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, data[:, 0] if channels == 1 else data)
        _, columns = oracle_read_wav(path)
        loaded = read_wav(path)
        buffers = [loaded] if channels == 1 else [loaded.left, loaded.right]
        for buffer, column in zip(buffers, columns.T):
            assert buffer.samples.flags.c_contiguous and buffer.samples.dtype == np.float64
            np.testing.assert_array_equal(buffer.samples, column)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_read_across_blocks(self, tmp_path, rng, channels, dtype):
        # read_wav loads _READ_FRAMES frames at a time: whole blocks, then a
        # 3-frame tail.
        frames = 2 * audio._READ_FRAMES + 3
        self.test_read_channels_are_contiguous_float64(tmp_path, rng, channels, dtype, frames)

    def test_read_holds_blocks_of_stored_samples(self, tmp_path, rng):
        # Beside its float64 channels (16 B a stereo frame), a read holds at
        # most two blocks of stored frames (the next is read before the last
        # is freed), never the whole file's 4 B a frame; the finiteness check
        # of finite samples is a sum and builds no mask.
        n = 8 * audio._READ_FRAMES
        wavfile.write(tmp_path / "x.wav", 16000, rng.integers(-3000, 3000, (n, 2), dtype=np.int16))
        tracemalloc.start()
        try:
            read_wav(tmp_path / "x.wav")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 16 * n < 2.5 * 4 * audio._READ_FRAMES


def convolve_one(x, k):
    """One channel and one kernel through fft_convolve: the N x 1 signal
    with the 1 x 1 x L bank."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    return fft_convolve(x[:, None], k[None, None, :])[0]


class TestConvolution:
    def test_impulse_response(self):
        out = convolve_one([1.0, 0.0, 0.0], [0.7, -0.2])
        np.testing.assert_allclose(out, [0.7, -0.2, 0.0, 0.0], atol=1e-12)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal(100)
        out = convolve_one(x, [1.0])
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal(64)
        k = rng.standard_normal(9)
        out = convolve_one(x, k)
        expected = direct_convolve(x, k)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError):
            fft_convolve(np.zeros((10, 1)), np.zeros((1, 1, 0)))

    def test_linearity(self, rng):
        for _ in range(5):
            x = rng.standard_normal(200)
            y = rng.standard_normal(200)
            k = rng.standard_normal(17)
            a, b = rng.standard_normal(2)
            lhs = convolve_one(a * x + b * y, k)
            rhs = a * convolve_one(x, k) + b * convolve_one(y, k)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_many_blocks_match_direct_convolution(self, rng):
        # 9 taps give a 256-point FFT and a 248-sample hop: 5 blocks here.
        x = rng.standard_normal(1200)
        k = rng.standard_normal(9)
        out = convolve_one(x, k)
        np.testing.assert_allclose(out, direct_convolve(x, k), rtol=1e-9, atol=1e-12)

    def test_empty_signal_gives_kernel_tail(self):
        out = convolve_one(np.zeros(0), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_delay_commutes(self, rng):
        x = rng.standard_normal(64)
        k = rng.standard_normal(5)
        d = 7
        delayed = np.concatenate([np.zeros(d), x])
        out_delayed = convolve_one(delayed, k)
        out = convolve_one(x, k)
        np.testing.assert_allclose(out_delayed[d : d + len(out)], out, atol=1e-10)


class TestStft:
    def test_zero_signal(self):
        spec = stft(AudioBuffer(np.zeros(2048)))
        assert np.all(spec == 0.0)
        assert spec.shape[1] == 257

    def test_dc_hann(self):
        # A periodic Hann window puts a constant into bins 0 and 1 only.
        spec = stft(AudioBuffer(np.ones(64)), frame_size=64, hop=64)
        np.testing.assert_allclose(spec[0], direct_dft_frame(hann_window(64)), atol=1e-9)
        assert abs(spec[0, 0]) == pytest.approx(32.0)
        assert np.max(np.abs(spec[0, 2:])) < 1e-9

    def test_bin_exact_sine_matches_direct_dft(self):
        # 500 Hz is bin 16 of a 512-sample frame; Hann spreads it over bins 15-17
        sig = sine_buffer(500.0, n=512)
        spec = stft(sig, frame_size=512, hop=512)
        expected = direct_dft_frame(hann_window(512) * sig.samples)
        np.testing.assert_allclose(spec[0], expected, atol=1e-6)
        mags = np.abs(spec[0])
        assert np.argmax(mags) == 16
        assert mags[16] > 100 * np.max(np.delete(mags, [15, 16, 17]))

    def test_frame_count(self, rng):
        x = rng.standard_normal(1000)
        spec = stft(AudioBuffer(x), frame_size=512, hop=160)
        assert spec.shape[0] == 1 + (1000 - 512) // 160

    def test_too_short_signal(self):
        with pytest.raises(ValueError):
            stft(AudioBuffer(np.zeros(100)), frame_size=512)

    def test_parseval_hann(self, rng):
        x = rng.standard_normal(256)
        spec = stft(AudioBuffer(x), frame_size=256, hop=256)
        mags = np.abs(spec[0]) ** 2
        # one-sided spectrum: double every bin except DC and Nyquist
        total = mags[0] + mags[-1] + 2.0 * np.sum(mags[1:-1])
        np.testing.assert_allclose(total / 256.0, np.sum((hann_window(256) * x) ** 2), rtol=1e-6)


class TestFrameRms:
    def test_zero_signal(self):
        assert np.all(frame_rms(AudioBuffer(np.zeros(1000)), 100, 50) == 0.0)

    def test_sine_rms(self):
        sig = sine_buffer(100.0, n=1600, amplitude=1.0)  # frames span whole periods
        rms = frame_rms(sig, 160, 160)
        np.testing.assert_allclose(rms, 1.0 / np.sqrt(2.0), rtol=1e-9)

    def test_constant(self):
        rms = frame_rms(AudioBuffer(np.full(1000, 0.25)), 128, 64)
        np.testing.assert_allclose(rms, 0.25, rtol=1e-12)

    def test_tail_dropped(self):
        rms = frame_rms(AudioBuffer(np.zeros(130)), 100, 100)
        assert len(rms) == 1


class TestFrames:
    @given(n=st.integers(0, 60), size=st.integers(1, 12), hop=st.integers(1, 12))
    def test_rows_are_the_full_slices(self, n, size, hop):
        x = np.arange(n, dtype=np.float64)
        want = [x[s : s + size] for s in range(0, n - size + 1, hop)]
        got = frames(x, size, hop)
        assert got.shape == (len(want), size)
        assert all(np.array_equal(row, w) for row, w in zip(got, want))


class TestFrameEnergy:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 3000),
        size=st.integers(1, 600),
        hop=st.integers(1, 300),
        silent=st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 800)), max_size=4),
    )
    def test_chunk_sums_match_direct_frame_sums(self, seed, n, size, hop, silent):
        """Energies from chunk sums equal the squared-frame sums within
        1e-12 relative, and exactly 0 on frames of digital silence."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 3.0, n)
        for start, length in silent:
            x[start : start + length] = 0.0
        want = np.sum(frames(x, size, hop) ** 2, axis=1)
        got = frame_energy(x, size, hop)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(got[want == 0.0] == 0.0)

    def test_bad_size_and_hop_rejected(self):
        with pytest.raises(ValueError, match="frame_size must be >= 1"):
            frame_energy(np.ones(10), 0, 1)
        with pytest.raises(ValueError, match="hop must be >= 1"):
            frame_energy(np.ones(10), 4, 0)


def _stacked_write(path, columns, rate, encoding):
    """WAV bytes as written from a float64 stack of the channels, then cast."""
    data = columns[:, 0] if columns.shape[1] == 1 else columns
    if encoding == "pcm16":
        data = np.clip(np.rint(data * 32768.0), -32768, 32767).astype(np.int16)
    else:
        data = data.astype(np.float32)
    wavfile.write(path, rate, data)
    return path.read_bytes()


class _Length:
    """Stands in for a channel of `n` samples: it has a length and no samples,
    so a writer that does not refuse it fails on it at once."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class TestWriteWav:
    @pytest.mark.parametrize(
        "encoding, frames, rate",
        [("float32", 2**30, 16000), ("pcm16", 2**31, 16000), ("float32", 4, 2**30)],
    )
    def test_over_4_gib_refused_before_anything_is_written(self, tmp_path, encoding, frames, rate):
        huge = SimpleNamespace(samples=_Length(frames), sample_rate=rate)
        path = tmp_path / "huge.wav"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_wav(path, huge, encoding)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_bytes_match_stacked_cast(self, tmp_path, rng, encoding, channels):
        columns = rng.uniform(-1.2, 1.2, (3001, channels))
        columns[:8, 0] = [0.5 / 32768, 1.5 / 32768, -0.5 / 32768, 1.0, -1.0, 1.5, -1.5, 0.0]
        path = tmp_path / "out.wav"
        write_wav(path, _as_buffer(columns, 22050), encoding)
        assert path.read_bytes() == _stacked_write(tmp_path / "ref.wav", columns, 22050, encoding)

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_memory_peak_below_one_float64_copy_of_both_channels(self, tmp_path, rng, encoding):
        # A float64 stack of both channels alone is 2 * N * 8 bytes.
        n = 200_000
        buffer = _as_buffer(rng.uniform(-1.0, 1.0, (n, 2)), 16000)
        tracemalloc.start()
        try:
            write_wav(tmp_path / "out.wav", buffer, encoding)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * 8


def _as_buffer(columns, rate):
    """AudioBuffer for one column, BinauralBuffer for two."""
    channels = [AudioBuffer(columns[:, c], rate) for c in range(columns.shape[1])]
    return channels[0] if len(channels) == 1 else BinauralBuffer(*channels)


_SHAPES = st.tuples(st.integers(1, 300), st.sampled_from([1, 2]))
_RATES = st.sampled_from([8000, 16000, 44100, 48000])
_TMP_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestWavRoundTrip:
    @_TMP_OK
    @given(
        data=arrays(np.float32, _SHAPES, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        rate=_RATES,
    )
    def test_float32_is_bit_exact(self, tmp_path, data, rate):
        path = tmp_path / "f32.wav"
        write_wav(path, _as_buffer(data.astype(np.float64), rate), "float32")
        loaded = read_wav(path)
        assert loaded.sample_rate == rate
        assert channel_columns(loaded).tobytes() == data.astype(np.float64).tobytes()

    @_TMP_OK
    @given(codes=arrays(np.int16, _SHAPES), rate=_RATES)
    def test_pcm16_is_exact_on_the_grid(self, tmp_path, codes, rate):
        # Multiples of 1/32768 in [-1, 1) are exactly the PCM-16 codes.
        samples = codes.astype(np.float64) / 32768.0
        path = tmp_path / "pcm.wav"
        write_wav(path, _as_buffer(samples, rate), "pcm16")
        loaded = read_wav(path)
        assert loaded.sample_rate == rate
        assert np.array_equal(channel_columns(loaded), samples)


def bank_reference(x, bank):
    """Row e: sum over channels k of np.convolve(x[:, k], bank[e, k])."""
    return np.array(
        [sum(np.convolve(x[:, k], bank[e, k]) for k in range(x.shape[1])) for e in range(len(bank))]
    )


class TestFilterBankConvolution:
    @pytest.mark.parametrize(
        "n,k,e,taps",
        [
            (1, 1, 1, 1),  # single sample, single tap
            (300, 4, 2, 1),  # L = 1 is a per-channel gain
            (100, 4, 2, 64),  # shorter than one 1024-point block
            (3 * 961, 4, 2, 64),  # exact multiple of the 961-sample hop
            (3 * 1024, 9, 2, 64),  # multiple of the FFT size, not of the hop
            (5000, 3, 3, 17),
            (2000, 2, 1, 200),
            (5000, 2, 2, 2),  # 162 blocks of 31 samples: several block groups
            (128 * 31, 2, 2, 2),  # exactly two groups of 64 blocks
        ],
    )
    def test_matches_summed_np_convolve(self, rng, n, k, e, taps):
        x = rng.standard_normal((n, k))
        bank = rng.standard_normal((e, k, taps))
        out = fft_convolve(x, bank)
        assert out.shape == (e, n + taps - 1)
        np.testing.assert_allclose(out, bank_reference(x, bank), rtol=0, atol=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 2500),
        k=st.integers(1, 4),
        e=st.integers(1, 3),
        taps=st.integers(1, 80),
    )
    def test_matches_summed_np_convolve_property(self, seed, n, k, e, taps):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, k))
        bank = rng.standard_normal((e, k, taps))
        out = fft_convolve(x, bank)
        expected = bank_reference(x, bank) if n else np.zeros((e, taps - 1))
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "x_shape,bank_shape",
        [((10, 2), (2, 3, 4)), ((10,), (1, 1, 4)), ((10, 2), (2, 4)), ((10, 2), (2, 2, 0))],
        ids=["channel_mismatch", "one_d_signal", "two_d_bank", "zero_taps"],
    )
    def test_bad_shapes_rejected(self, x_shape, bank_shape):
        with pytest.raises(ValueError):
            fft_convolve(np.zeros(x_shape), np.zeros(bank_shape))


class TestNonFiniteWav:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_read_names_the_file(self, tmp_path, bad, channels):
        data = np.zeros((100, channels), dtype=np.float32)
        data[40, channels - 1] = bad
        path = tmp_path / "damaged.wav"
        wavfile.write(path, 16000, data[:, 0] if channels == 1 else data)
        with pytest.raises(AudioFormatError, match=r"damaged\.wav.*finite"):
            read_wav(path)

    def test_signalling_nan_names_the_file_without_a_warning(self, tmp_path):
        # Widening a signalling NaN to float64 raises NumPy's "invalid value"
        # warning, which filterwarnings = ["error"] turns into a failure here.
        bits = np.zeros(100, dtype="<u4")
        bits[40] = 0x7FA00000
        path = tmp_path / "damaged.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 32), chunk(b"data", bits.tobytes())))
        with pytest.raises(AudioFormatError, match=r"damaged\.wav.*finite"):
            read_wav(path)
