import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binauralkit.audio import AudioBuffer
from binauralkit.ambisonic import (
    LayoutError,
    ShSignal,
    SpeakerLayout,
    Trajectory,
    decode_matrix,
    encode_mono,
    load_trajectory_csv,
    project_to_speakers,
    ring_layout,
    save_trajectory_csv,
    sh_basis,
    wrap_azimuth,
)
from conftest import breakpoints
from oracles import oracle_direction_at


def one_point_trajectory(azimuth, elevation):
    return Trajectory([0.0], [azimuth], [elevation])


def one_speaker_layout(azimuth, elevation):
    return SpeakerLayout([azimuth], [elevation])


def one_block_encoding(azimuth, elevation):
    return encode_mono(AudioBuffer(np.ones(4), 16000), azimuth, elevation)


def rejects(make, azimuth, elevation):
    try:
        make(azimuth, elevation)
    except ValueError:
        return True
    return False


class TestDirection:
    """The direction rule, which Trajectory, SpeakerLayout and encode_mono
    all apply."""

    def test_azimuth_wrapped(self):
        for make in (one_point_trajectory, one_speaker_layout):
            assert make(3 * math.pi / 2, 0.0).azimuth[0] == pytest.approx(-math.pi / 2)

    def test_elevation_range_enforced(self):
        for make in (one_point_trajectory, one_speaker_layout):
            with pytest.raises(ValueError, match="elevation outside"):
                make(0.0, 2.0)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf])
    def test_azimuth_must_be_finite(self, azimuth):
        for make in (one_point_trajectory, one_speaker_layout):
            with pytest.raises(ValueError, match="azimuth must be finite"):
                make(azimuth, 0.0)

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
        for make in (one_point_trajectory, one_speaker_layout, one_block_encoding):
            assert rejects(make, azimuth, elevation) == (not valid)


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
            for order in (0, 1, 2):
                assert sh_basis(az, el, order)[0] == 1.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            sh_basis(0.0, 0.0, 3)

    def test_order2_length(self):
        assert len(sh_basis(0.3, 0.1, 2)) == 9


class TestRingLayout:
    def test_m4(self):
        np.testing.assert_allclose(ring_layout(4).azimuth, [0, math.pi / 2, -math.pi, -math.pi / 2])

    def test_m2(self):
        np.testing.assert_allclose(ring_layout(2).azimuth, [0, -math.pi])

    def test_m8_distinct(self):
        layout = ring_layout(8)
        assert len(set(zip(layout.azimuth, layout.elevation))) == 8
        assert np.all(layout.elevation == 0.0)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            ring_layout(1)


class TestDecodeMatrix:
    def test_ring_well_conditioned(self):
        layout = ring_layout(4)
        d = sh_basis(layout.azimuth, layout.elevation, 1)
        # active horizontal channels give an invertible normal matrix
        active = d[:, [0, 1, 3]]
        g = active.T @ active
        eig = np.linalg.eigvalsh(g)
        assert eig[0] > 1e-6 * eig[-1]

    def test_duplicate_direction_rejected_at_layout(self):
        with pytest.raises(LayoutError):
            SpeakerLayout([0.0, 0.0], [0.0, 0.0])

    def test_wrapped_duplicate_rejected_at_layout(self):
        with pytest.raises(LayoutError):
            SpeakerLayout([0.5, 0.5 + 2.0 * math.pi], [0.0, 0.0])

    @pytest.mark.parametrize("slack", [0.0, 1e-12, -1e-12])
    def test_two_speakers_at_one_pole_rejected_at_layout(self, slack):
        # At a pole the azimuth names no other point: (0, pi/2) and
        # (1, pi/2) are one speaker, as are two at the pole within the slack.
        ring = ring_layout(6)
        azimuth = np.concatenate([ring.azimuth, [0.0, 1.0, 0.0]])
        poles = [math.pi / 2, math.pi / 2 + slack, -math.pi / 2]
        elevation = np.concatenate([ring.elevation, poles])
        with pytest.raises(LayoutError, match="duplicate layout direction"):
            SpeakerLayout(azimuth, elevation)
        SpeakerLayout(np.delete(azimuth, 7), np.delete(elevation, 7))  # one speaker per pole

    @pytest.mark.parametrize(
        "azimuth,elevation", [([0.0, 1.0], [0.0]), ([[0.0, 1.0]], [[0.0, 0.0]]), ([], [])]
    )
    def test_layout_arrays_must_be_one_nonempty_length(self, azimuth, elevation):
        with pytest.raises(ValueError):
            SpeakerLayout(azimuth, elevation)

    def test_near_duplicate_layout_singular(self):
        layout = SpeakerLayout([0.0, 1e-13], [0.0, 0.0])
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
            for k, (az, el) in enumerate(zip(layout.azimuth, layout.elevation)):
                gains = dm @ sh_basis(az, el, 1)
                assert np.argmax(gains) == k


class TestProjection:
    def test_encoded_layout_direction_dominates(self):
        layout = ring_layout(4)
        dm = decode_matrix(layout, 1)
        sig = AudioBuffer(np.ones(8), 16000)
        sh = encode_mono(sig, layout.azimuth[1], layout.elevation[1], order=1)
        feeds = project_to_speakers(sh, dm)
        energies = [np.sum(f.samples**2) for f in feeds]
        assert np.argmax(energies) == 1

    def test_zero_signal(self):
        dm = decode_matrix(ring_layout(4), 1)
        sh = ShSignal(1, np.zeros((16, 4)), 16000)
        for feed in project_to_speakers(sh, dm):
            assert np.all(feed.samples == 0.0)

    def test_linearity(self, rng):
        layout = ring_layout(6)
        dm = decode_matrix(layout, 1)
        sig_a = AudioBuffer(rng.standard_normal(64), 16000)
        sig_b = AudioBuffer(rng.standard_normal(64), 16000)
        sh_a = encode_mono(sig_a, 0.4, 0.0, order=1)
        sh_b = encode_mono(sig_b, -1.1, 0.0, order=1)
        sh_sum = ShSignal(1, sh_a.frames + sh_b.frames, 16000)
        feeds_sum = project_to_speakers(sh_sum, dm)
        feeds_a = project_to_speakers(sh_a, dm)
        feeds_b = project_to_speakers(sh_b, dm)
        for fs, fa, fb in zip(feeds_sum, feeds_a, feeds_b):
            np.testing.assert_allclose(fs.samples, fa.samples + fb.samples, atol=1e-9)

    def test_order_mismatch(self):
        dm = decode_matrix(ring_layout(4), 1)
        with pytest.raises(ValueError):
            project_to_speakers(ShSignal(0, np.zeros((4, 1)), 16000), dm)

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
                    g * row for g, row in zip(gains, sh_basis(layout.azimuth, layout.elevation, 1))
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
            rotated = SpeakerLayout(base.azimuth + delta, base.elevation)
            dm_rot = decode_matrix(rotated, 1)
            gains = np.sort(dm @ sh_basis(az, 0.0, 1))
            gains_rot = np.sort(dm_rot @ sh_basis(wrap_azimuth(az + delta), 0.0, 1))
            np.testing.assert_allclose(gains, gains_rot, atol=1e-9)


class TestEncodeMono:
    def test_constant_front(self, rng):
        x = rng.standard_normal(3000)
        sh = encode_mono(AudioBuffer(x, 16000), 0.0, 0.0, order=1)
        np.testing.assert_allclose(sh.frames[:, 0], x, atol=1e-12)
        np.testing.assert_allclose(sh.frames[:, 3], x, atol=1e-12)
        assert np.all(sh.frames[:, 1] == 0.0)
        assert np.all(sh.frames[:, 2] == 0.0)

    def test_zero_signal(self):
        sh = encode_mono(AudioBuffer(np.zeros(2048), 16000), 1.0, 0.0, order=1)
        assert np.all(sh.frames == 0.0)

    def test_crossfade_front_to_left(self):
        # constant-1 signal, front for block 0 then left: X fades 1 -> 0 and
        # Y fades 0 -> 1 over the crossfade window at the block boundary
        block, xf = 1024, 256
        sig = AudioBuffer(np.ones(2 * block), 16000)
        sh = encode_mono(
            sig, [0.0, math.pi / 2], [0.0, 0.0], order=1,
            block_size=block, crossfade=xf,
        )
        alpha = (np.arange(xf) + 1.0) / xf
        np.testing.assert_allclose(sh.frames[block : block + xf, 3], 1.0 - alpha, atol=1e-12)
        np.testing.assert_allclose(sh.frames[block : block + xf, 1], alpha, atol=1e-12)
        # after the window the new direction holds exactly
        np.testing.assert_allclose(sh.frames[block + xf :, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(sh.frames[block + xf :, 3], 0.0, atol=1e-12)

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            encode_mono(AudioBuffer(np.ones(10), 16000), [], [], order=1)

    def test_trajectory_must_cover_signal(self):
        with pytest.raises(ValueError):
            encode_mono(
                AudioBuffer(np.ones(3000), 16000),
                [0.0, 1.0],
                [0.0, 0.0],
                order=1,
                block_size=1024,
            )


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
        save_trajectory_csv(path, traj)
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
        save_trajectory_csv(path, traj)
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
