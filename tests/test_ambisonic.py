import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binauralkit.audio import _OLA_GROUP, fft_convolve, next_pow2
from binauralkit.ambisonic import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CROSSFADE,
    DUPLICATE_SEPARATION,
    EncodedRows,
    LayoutError,
    SpeakerLayout,
    Trajectory,
    decode_matrix,
    encode_mono,
    load_trajectory_csv,
    project_to_speakers,
    ring_layout,
    sh_basis,
    wrap_azimuth,
)
from conftest import breakpoints, write_trajectory_csv
from oracles import oracle_direction_at, oracle_has_close_directions


def one_point_trajectory(azimuth, elevation):
    return Trajectory([0.0], [azimuth], [elevation])


def one_speaker_layout(azimuth):
    return SpeakerLayout([azimuth])


def one_block_encoding(azimuth, elevation):
    return encode_mono(np.ones(4), azimuth, elevation)


def rejects(make, *direction):
    try:
        make(*direction)
    except ValueError:
        return True
    return False


class TestDirection:
    """The direction rule, which Trajectory and encode_mono apply, and
    SpeakerLayout to its azimuths (a layout is horizontal)."""

    def test_azimuth_wrapped(self):
        assert one_point_trajectory(3 * math.pi / 2, 0.0).azimuth[0] == pytest.approx(-math.pi / 2)
        assert one_speaker_layout(3 * math.pi / 2).azimuth[0] == pytest.approx(-math.pi / 2)

    def test_elevation_range_enforced(self):
        for make in (one_point_trajectory, one_block_encoding):
            with pytest.raises(ValueError, match="elevation outside"):
                make(0.0, 2.0)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf])
    def test_azimuth_must_be_finite(self, azimuth):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            one_point_trajectory(azimuth, 0.0)
        with pytest.raises(ValueError, match="azimuth must be finite"):
            one_speaker_layout(azimuth)

    @given(
        azimuth=st.sampled_from([0.0, math.pi, -math.pi, 7.0, math.nan, math.inf, -math.inf])
        | st.floats(allow_nan=True, allow_infinity=True),
        elevation=st.sampled_from(
            [
                sign * (math.pi / 2 + slack)
                for sign in (1, -1)
                for slack in (0.0, 5e-13, 1e-12, 2e-12, 1e-9)
            ]
            + [math.nan, math.inf, -math.inf, 2.0]
        )
        | st.floats(-2.0, 2.0),
    )
    def test_trajectory_and_layout_reject_the_same_directions(self, azimuth, elevation):
        valid = math.isfinite(azimuth) and abs(elevation) <= math.pi / 2 + 1e-12
        for make in (one_point_trajectory, one_block_encoding):
            assert rejects(make, azimuth, elevation) == (not valid)
        assert rejects(one_speaker_layout, azimuth) == (not math.isfinite(azimuth))


class TestShEncode:
    def test_front(self):
        np.testing.assert_allclose(sh_basis(0.0, 0.0, 1), [1, 0, 0, 1], atol=1e-15)

    def test_left(self):
        np.testing.assert_allclose(
            sh_basis(math.pi / 2, 0.0, 1), [1, 1, 0, 0], atol=1e-15
        )

    def test_up(self):
        np.testing.assert_allclose(
            sh_basis(0.0, math.pi / 2, 1), [1, 0, 1, 0], atol=1e-15
        )

    def test_w_channel_always_one(self, rng):
        for _ in range(20):
            az, el = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
            for order in (0, 1):
                assert sh_basis(az, el, order)[0] == 1.0

    def test_unsupported_order(self):
        for order in (-1, 2, 3):
            with pytest.raises(ValueError, match="unsupported SH order"):
                sh_basis(0.0, 0.0, order)


class TestRingLayout:
    def test_m4(self):
        np.testing.assert_allclose(ring_layout(4).azimuth, [0, math.pi / 2, -math.pi, -math.pi / 2])

    def test_m2(self):
        np.testing.assert_allclose(ring_layout(2).azimuth, [0, -math.pi])

    def test_m8_distinct(self):
        layout = ring_layout(8)
        assert len(set(layout.azimuth)) == 8

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            ring_layout(1)


class TestDecodeMatrix:
    def test_ring_well_conditioned(self):
        layout = ring_layout(4)
        d = sh_basis(layout.azimuth, 0.0, 1)
        # active horizontal channels give an invertible normal matrix
        active = d[:, [0, 1, 3]]
        g = active.T @ active
        eig = np.linalg.eigvalsh(g)
        assert eig[0] > 1e-6 * eig[-1]

    def test_duplicate_direction_rejected_at_layout(self):
        with pytest.raises(LayoutError):
            SpeakerLayout([0.0, 0.0])

    def test_wrapped_duplicate_rejected_at_layout(self):
        with pytest.raises(LayoutError):
            SpeakerLayout([0.5, 0.5 + 2.0 * math.pi])

    @pytest.mark.parametrize("azimuth", [0.0, [[0.0, 1.0]], []])
    def test_layout_arrays_must_be_one_nonempty_length(self, azimuth):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            SpeakerLayout(azimuth)

    @pytest.mark.parametrize("azimuth", [1e-13, -math.pi + 1e-13, math.pi - 1e-13])
    def test_near_duplicate_rejected_at_layout(self, azimuth):
        # 1e-13 rad from the ring's speaker at 0 or at -pi, on either side
        # of the wrap: decoding would split one speaker's gain over two.
        ring = ring_layout(6)
        with pytest.raises(LayoutError, match="duplicate layout direction"):
            SpeakerLayout(np.append(ring.azimuth, azimuth))

    def test_separated_directions_accepted_at_layout(self):
        assert len(ring_layout(64)) == 64
        assert len(SpeakerLayout([0.0, 1e-6])) == 2

    def test_large_ring_layout_memory_is_linear(self):
        # Comparing all pairs at once would hold M^2 / 2 chord vectors:
        # about 45 MB here, against about 0.15 MB for the sorted check.
        m = 1000
        tracemalloc.start()
        try:
            layout = ring_layout(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(layout) == m
        assert peak < 1000 * m

    @given(
        m=st.integers(1, 24),
        extra=st.lists(
            st.tuples(st.integers(0, 23),
                      st.sampled_from(["mirror", 0.0, 1e-13, 1e-10, 1e-6, -1e-6])),
            max_size=4,
        ),
        straddle=st.lists(st.sampled_from([0.0, 1e-13, 1e-10, 2e-9, 1e-6]), max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_duplicate_check_equals_all_pairs(self, m, extra, straddle, seed):
        # Extra azimuths copy, offset or mirror (-azimuth) a drawn one, and
        # straddling pairs sit a gap apart across -pi/pi, so neighbours tie,
        # nearly tie, or meet only across the wrap. The layout raises exactly
        # when some pair is closer than the limit.
        rng = np.random.default_rng(seed)
        azimuth = list(rng.uniform(-math.pi, math.pi, m))
        for index, kind in extra:
            az = azimuth[index % m]
            azimuth.append(-az if kind == "mirror" else az + kind)
        for gap in straddle:
            azimuth += [math.pi - gap / 3.0, -math.pi + 2.0 * gap / 3.0]
        if oracle_has_close_directions(wrap_azimuth(np.array(azimuth)), DUPLICATE_SEPARATION):
            with pytest.raises(LayoutError, match="duplicate layout direction"):
                SpeakerLayout(azimuth)
        else:
            assert len(SpeakerLayout(azimuth)) == len(azimuth)

    def test_near_duplicate_layout_singular(self):
        # Two speakers 1e-6 rad apart pass the layout check, but cannot
        # carry three first-order horizontal channels.
        layout = SpeakerLayout([0.0, 1e-6])
        with pytest.raises(LayoutError):
            decode_matrix(layout, 1)

    def test_order0_all_ones_column(self):
        # D is the all-ones column, so P = D (D^T D)^-1 is 1/M everywhere
        dm = decode_matrix(ring_layout(5), 0)
        assert dm.shape == (5, 1)
        np.testing.assert_allclose(dm, np.full((5, 1), 1.0 / 5), rtol=1e-12)

    def test_layout_direction_gets_max_gain(self):
        for m in (4, 6, 8):
            dm = decode_matrix(ring_layout(m), 1)
            layout = ring_layout(m)
            for k, az in enumerate(layout.azimuth):
                gains = dm @ sh_basis(az, 0.0, 1)
                assert np.argmax(gains) == k


class TestProjection:
    def test_encoded_layout_direction_dominates(self):
        layout = ring_layout(4)
        dm = decode_matrix(layout, 1)
        sh = encode_mono(np.ones(8), layout.azimuth[1], 0.0, order=1)
        feeds = project_to_speakers(sh, dm)
        energies = np.sum(feeds**2, axis=0)
        assert np.argmax(energies) == 1

    def test_zero_signal(self):
        dm = decode_matrix(ring_layout(4), 1)
        feeds = project_to_speakers(np.zeros((16, 4)), dm)
        assert feeds.shape == (16, 4) and np.all(feeds == 0.0)

    def test_linearity(self, rng):
        layout = ring_layout(6)
        dm = decode_matrix(layout, 1)
        sh_a = encode_mono(rng.standard_normal(64), 0.4, 0.0, order=1)
        sh_b = encode_mono(rng.standard_normal(64), -1.1, 0.0, order=1)
        feeds_sum = project_to_speakers(sh_a + sh_b, dm)
        feeds_a = project_to_speakers(sh_a, dm)
        feeds_b = project_to_speakers(sh_b, dm)
        np.testing.assert_allclose(feeds_sum, feeds_a + feeds_b, atol=1e-9)

    def test_order_mismatch(self):
        dm = decode_matrix(ring_layout(4), 1)
        with pytest.raises(ValueError, match="SH order mismatch"):
            project_to_speakers(np.zeros((4, 1)), dm)

    def test_reencode_consistency(self, rng):
        # encode -> project -> re-encode reproduces the horizontal channels
        for m in (4, 8):
            layout = ring_layout(m)
            dm = decode_matrix(layout, 1)
            for _ in range(25):
                az = rng.uniform(-np.pi, np.pi)
                y = sh_basis(az, 0.0, 1)
                gains = dm @ y
                reencoded = sum(
                    g * row for g, row in zip(gains, sh_basis(layout.azimuth, 0.0, 1))
                )
                for ch in (0, 1, 3):
                    assert reencoded[ch] == pytest.approx(y[ch], rel=1e-6, abs=1e-9)

    def test_rotation_equivariance(self, rng):
        m = 6
        base = ring_layout(m)
        dm = decode_matrix(base, 1)
        for _ in range(10):
            az = rng.uniform(-np.pi, np.pi)
            delta = rng.uniform(-np.pi, np.pi)
            rotated = SpeakerLayout(base.azimuth + delta)
            dm_rot = decode_matrix(rotated, 1)
            gains = np.sort(dm @ sh_basis(az, 0.0, 1))
            gains_rot = np.sort(dm_rot @ sh_basis(wrap_azimuth(az + delta), 0.0, 1))
            np.testing.assert_allclose(gains, gains_rot, atol=1e-9)


def random_rows(seed, n, k):
    """EncodedRows of n random samples under random gains, K per block."""
    rng = np.random.default_rng(seed)
    return EncodedRows(rng.standard_normal(n), rng.standard_normal((-(-n // DEFAULT_BLOCK_SIZE), k)))


# Slice ends at and beside every block start and crossfade end.
ROW_EDGES = sorted(
    b * DEFAULT_BLOCK_SIZE + d
    for b in range(5)
    for d in (-1, 0, 1, DEFAULT_CROSSFADE - 1, DEFAULT_CROSSFADE, DEFAULT_CROSSFADE + 1)
)


class TestRowSource:
    """EncodedRows slices as the N x K array of its rows does, so
    fft_convolve takes either alike."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4 * DEFAULT_BLOCK_SIZE + 7),
           k=st.integers(1, 9), data=st.data())
    def test_slice_is_those_rows_of_the_whole(self, seed, n, k, data):
        rows = random_rows(seed, n, k)
        ends = st.one_of(st.integers(0, n), st.sampled_from([e for e in ROW_EDGES if 0 <= e <= n]))
        lo, hi = sorted((data.draw(ends), data.draw(ends)))
        whole = rows[0:n]
        assert whole.shape == (n, k)
        np.testing.assert_array_equal(rows[lo:hi], whole[lo:hi])

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), taps=st.integers(1, 3),
           data=st.data())
    def test_fft_convolve_takes_rows_as_their_array(self, seed, k, taps, data):
        hop = next_pow2(16 * taps) - taps + 1  # samples per overlap-add block
        n = data.draw(st.integers(_OLA_GROUP * hop + 1, 3 * _OLA_GROUP * hop))
        rows = random_rows(seed, n, k)
        bank = np.random.default_rng(seed + 1).standard_normal((2, k, taps))
        np.testing.assert_array_equal(
            fft_convolve(rows, bank), fft_convolve(np.ascontiguousarray(rows[0:n]), bank)
        )

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4 * DEFAULT_BLOCK_SIZE + 7),
           order=st.integers(0, 1), constant=st.booleans())
    def test_encode_mono_is_the_rows_of_its_sh_gains(self, seed, n, order, constant):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(n)
        blocks = 1 if constant else -(-n // DEFAULT_BLOCK_SIZE)
        azimuth = rng.uniform(-math.pi, math.pi, blocks)
        elevation = rng.uniform(-math.pi / 2, math.pi / 2, blocks)
        gains = sh_basis(wrap_azimuth(azimuth), elevation, order)
        gains = np.repeat(gains, -(-n // DEFAULT_BLOCK_SIZE) // blocks, axis=0)
        np.testing.assert_array_equal(
            encode_mono(samples, azimuth, elevation, order), EncodedRows(samples, gains)[0:n]
        )


class TestEncodeMono:
    def test_constant_front(self, rng):
        x = rng.standard_normal(3000)
        sh = encode_mono(x, 0.0, 0.0, order=1)
        np.testing.assert_allclose(sh[:, 0], x, atol=1e-12)
        np.testing.assert_allclose(sh[:, 3], x, atol=1e-12)
        assert np.all(sh[:, 1] == 0.0)
        assert np.all(sh[:, 2] == 0.0)

    def test_zero_signal(self):
        sh = encode_mono(np.zeros(2048), 1.0, 0.0, order=1)
        assert sh.shape == (2048, 4) and np.all(sh == 0.0)

    def test_crossfade_front_to_left(self):
        # constant-1 signal, front for block 0 then left: X fades 1 -> 0 and
        # Y fades 0 -> 1 over the crossfade window at the block boundary
        block, xf = DEFAULT_BLOCK_SIZE, DEFAULT_CROSSFADE
        sh = encode_mono(np.ones(2 * block), [0.0, math.pi / 2], [0.0, 0.0], order=1)
        alpha = (np.arange(xf) + 1.0) / xf
        np.testing.assert_allclose(sh[block : block + xf, 3], 1.0 - alpha, atol=1e-12)
        np.testing.assert_allclose(sh[block : block + xf, 1], alpha, atol=1e-12)
        # after the window the new direction holds exactly
        np.testing.assert_allclose(sh[block + xf :, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(sh[block + xf :, 3], 0.0, atol=1e-12)

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            encode_mono(np.ones(10), [], [], order=1)

    def test_trajectory_must_cover_signal(self):
        with pytest.raises(ValueError):
            encode_mono(np.ones(3000), [0.0, 1.0], [0.0, 0.0], order=1)


class TestTrajectory:
    def test_piecewise_constant(self):
        traj = Trajectory([0.0, 1.0], [0.0, 1.0], [0.0, 0.0])
        assert traj.direction_at(0.5) == (0.0, 0.0)
        assert traj.direction_at(1.5)[0] == pytest.approx(1.0)

    def test_gap(self):
        traj = Trajectory([1.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            traj.direction_at(0.0)

    def test_equal_times_last_point_wins(self):
        traj = Trajectory([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert traj.direction_at(1.0)[0] == pytest.approx(2.0)
        assert traj.direction_at(1.0 - 5e-13)[0] == pytest.approx(2.0)
        assert traj.direction_at(1.0 - 2e-12)[0] == 0.0

    @given(
        times=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(-2.0, 5.0),
            min_size=1,
            max_size=12,
        ),
        queries=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.sampled_from([0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12, 0.1, -0.1]),
            ),
            min_size=1,
            max_size=10,
        ),
        free=st.lists(st.floats(-3.0, 6.0), max_size=5),
    )
    def test_lookup_matches_linear_scan(self, times, queries, free):
        # Distinct azimuths tell apart the points that share a time.
        points = tuple((t, 0.01 * i, 0.0) for i, t in enumerate(times))
        traj = Trajectory(*breakpoints(points))
        ts = [times[i % len(times)] + offset for i, offset in queries] + free
        for t in ts:
            try:
                expected = oracle_direction_at(points, t)
            except ValueError:
                with pytest.raises(ValueError, match="gap"):
                    traj.direction_at(t)
                continue
            # Breakpoint azimuths are 0.01 rad apart, so this names one of them.
            assert traj.direction_at(t)[0] == pytest.approx(expected[0], abs=1e-12)

    def test_csv_roundtrip(self, tmp_path):
        traj = Trajectory([0.0, 0.5], [0.1, -1.2], [0.02, -0.3])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        loaded = load_trajectory_csv(path)
        np.testing.assert_allclose(loaded.times, traj.times, rtol=1e-6)
        np.testing.assert_allclose(loaded.azimuth, traj.azimuth, rtol=1e-6)
        np.testing.assert_allclose(loaded.elevation, traj.elevation, rtol=1e-6)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.0, 1e4, allow_subnormal=False),
                st.floats(-720.0, 720.0, allow_subnormal=False),
                st.floats(-90.0, 90.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_csv_keeps_nine_significant_digits(self, tmp_path, rows):
        # Azimuth is compared after wrapping: a value just below 180 degrees
        # may print as 180 and load back as -180.
        traj = Trajectory(*breakpoints(
            (t, math.radians(az), math.radians(el)) for t, az, el in rows
        ))
        path = tmp_path / "rt.csv"
        write_trajectory_csv(path, traj)
        loaded = load_trajectory_csv(path)
        assert len(loaded.times) == len(traj.times)
        for t0, a0, e0, t1, a1, e1 in zip(
            traj.times, traj.azimuth, traj.elevation,
            loaded.times, loaded.azimuth, loaded.elevation,
        ):
            assert t1 == pytest.approx(t0, rel=5e-9, abs=0.0)
            az_err = math.degrees(abs(wrap_azimuth(a1 - a0)))
            assert az_err <= 5e-9 * abs(math.degrees(a0)) + 1e-12
            el_err = math.degrees(abs(e1 - e0))
            assert el_err <= 5e-9 * abs(math.degrees(e0)) + 1e-12

    @pytest.mark.parametrize(
        "times,azimuth", [([math.nan], [0.0]), ([0.0], [math.nan]), ([0.0, math.inf], [0.0, 0.0])]
    )
    def test_non_finite_breakpoint_rejected(self, times, azimuth):
        with pytest.raises(ValueError, match="must be finite"):
            Trajectory(times, azimuth, np.zeros(len(times)))

    @pytest.mark.parametrize("azimuth", [[0.0], [0.0, 0.0, 0.0], 0.0])
    def test_arrays_must_share_one_length(self, azimuth):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Trajectory([0.0, 1.0], azimuth, [0.0, 0.0])

    def test_csv_header_only_names_file(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("time_s,azimuth_deg,elevation_deg\n")
        with pytest.raises(ValueError, match=r"bare\.csv: empty trajectory"):
            load_trajectory_csv(path)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(ValueError):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("row", ["nan,0,0", "0.5,nan,0", "0.5,0,inf", "0.5,x,0"])
    def test_csv_bad_value_cites_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"time_s,azimuth_deg,elevation_deg\n0.0,10,0\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3:"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("elevation", ["91", "-90.5"])
    def test_csv_bad_elevation_cites_line(self, tmp_path, elevation):
        path = tmp_path / "bad.csv"
        path.write_text(f"time_s,azimuth_deg,elevation_deg\n0.0,10,0\n0.5,10,{elevation}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: elevation outside \[-90, 90\] degrees"):
            load_trajectory_csv(path)
