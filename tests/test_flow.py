import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from binauralkit import flow
from binauralkit.flow import (
    AdamState,
    FlowDataset,
    FlowDivergence,
    TrainConfig,
    VelocityFieldNet,
    backward,
    cfm_loss,
    constant_target_dataset,
    interpolate,
    load_checkpoint,
    make_nets,
    sample_euler,
    save_checkpoint,
    save_loss_trace,
    target_velocity,
    timestep_embedding,
    train,
)
from oracles import oracle_adam_update, oracle_cfm_loss


def constant_field_net(latent_dim, value):
    """Net rigged to output a constant vector regardless of input."""
    net = VelocityFieldNet(latent_dim, hidden_width=8)
    params = net.parameters()
    params["w3"] = np.zeros_like(params["w3"])
    params["b3"] = np.full(latent_dim, float(value))
    net.set_parameters(params)
    return net


class TestTimestepEmbedding:
    def test_t_zero(self):
        np.testing.assert_allclose(
            timestep_embedding(0.0, 8), [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15
        )

    def test_t_half(self):
        # frequencies 1,2,4,8 cycles: sin(pi)=0, cos(pi)=-1, then full turns
        emb = timestep_embedding(0.5, 8)
        np.testing.assert_allclose(emb, [0, -1, 0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_quarter(self):
        emb = timestep_embedding(0.25, 4)
        np.testing.assert_allclose(emb, [1, 0, 0, -1], atol=1e-12)

    def test_batch_shape(self):
        emb = timestep_embedding([0.0, 0.5, 1.0], 6)
        assert emb.shape == (3, 6)
        np.testing.assert_allclose(emb[0], timestep_embedding(0.0, 6))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            timestep_embedding(0.5, 7)

    def test_bounded(self, rng):
        emb = timestep_embedding(rng.uniform(0, 1, 50), 8)
        assert np.max(np.abs(emb)) <= 1.0 + 1e-12


class TestPaths:
    def test_interpolate_endpoints(self, rng):
        x0 = rng.standard_normal((4, 3))
        x1 = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(interpolate(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(interpolate(x0, x1, 1.0), x1)

    def test_midpoint(self):
        np.testing.assert_allclose(interpolate([0.0, 2.0], [4.0, 6.0], 0.5), [2.0, 4.0])

    def test_velocity_is_time_derivative(self, rng):
        x0 = rng.standard_normal(6)
        x1 = rng.standard_normal(6)
        h = 1e-6
        fd = (interpolate(x0, x1, 0.3 + h) - interpolate(x0, x1, 0.3 - h)) / (2 * h)
        np.testing.assert_allclose(fd, target_velocity(x0, x1), atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros(3), np.zeros(4), 0.5)


class TestLoss:
    def test_exact_constant_field_zero_loss(self, rng):
        d = 4
        net = constant_field_net(d, 3.0)
        x0 = rng.standard_normal((16, d))
        loss = cfm_loss(net, x0, x0 + 3.0, rng.uniform(0, 1, 16))
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_offset_field_squared_error(self, rng):
        d, delta = 5, 0.3
        net = constant_field_net(d, 2.0 + delta)
        x0 = rng.standard_normal((8, d))
        loss = cfm_loss(net, x0, x0 + 2.0, rng.uniform(0, 1, 8))
        assert loss == pytest.approx(d * delta**2, rel=1e-9)

    def test_matches_loop_oracle(self, rng):
        d = 3
        net = VelocityFieldNet(d, hidden_width=8, rng_seed=7)
        x0 = rng.standard_normal((6, d))
        x1 = rng.standard_normal((6, d))
        t = rng.uniform(0, 1, 6)
        xt = interpolate(x0, x1, t)
        v = net.forward(xt, t)
        expected = oracle_cfm_loss(v.tolist(), (x1 - x0).tolist())
        assert cfm_loss(net, x0, x1, t) == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        net = VelocityFieldNet(2, hidden_width=8)
        with pytest.raises(ValueError):
            cfm_loss(net, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))


class TestBackward:
    def test_matches_central_finite_differences(self, rng):
        d = 3
        net = VelocityFieldNet(d, cond_dim=2, hidden_width=8, rng_seed=5)
        x0 = rng.standard_normal((4, d))
        x1 = rng.standard_normal((4, d))
        t = rng.uniform(0, 1, 4)
        cond = rng.standard_normal((4, 2))
        grads = backward(net, x0, x1, t, cond)
        h = 1e-5
        for name, grad in grads.items():
            base = np.array(getattr(net, name))
            flat_idx = [0, base.size // 2, base.size - 1]
            for k in flat_idx:
                idx = np.unravel_index(k, base.shape)
                for sign, store in ((1, "plus"), (-1, "minus")):
                    perturbed = base.copy()
                    perturbed[idx] += sign * h
                    setattr(net, name, perturbed)
                    if sign == 1:
                        lp = cfm_loss(net, x0, x1, t, cond)
                    else:
                        lm = cfm_loss(net, x0, x1, t, cond)
                setattr(net, name, base)
                fd = (lp - lm) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8), name

    def test_zero_residual_zero_gradient(self, rng):
        d = 3
        net = constant_field_net(d, 1.5)
        x0 = rng.standard_normal((6, d))
        grads = backward(net, x0, x0 + 1.5, rng.uniform(0, 1, 6))
        for g in grads.values():
            # (x0 + 1.5) - x0 carries one rounding step, so not exactly zero
            np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_deterministic(self, rng):
        net = VelocityFieldNet(2, hidden_width=8, rng_seed=9)
        x0 = rng.standard_normal((5, 2))
        x1 = rng.standard_normal((5, 2))
        t = rng.uniform(0, 1, 5)
        a = backward(net, x0, x1, t)
        b = backward(net, x0, x1, t)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestSampling:
    def test_constant_field_translation_exact(self, rng):
        net = constant_field_net(4, 3.0)
        x0 = rng.standard_normal(4)
        for steps in (1, 8, 32):
            out = sample_euler(net, x0, steps=steps)
            np.testing.assert_allclose(out, x0 + 3.0, atol=1e-12)

    def test_zero_field_identity(self, rng):
        net = constant_field_net(3, 0.0)
        x0 = rng.standard_normal(3)
        np.testing.assert_allclose(sample_euler(net, x0, steps=16), x0, atol=1e-15)

    def test_batch_sampling(self, rng):
        net = constant_field_net(3, 1.0)
        x0 = rng.standard_normal((5, 3))
        out = sample_euler(net, x0, steps=4)
        np.testing.assert_allclose(out, x0 + 1.0, atol=1e-12)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            sample_euler(constant_field_net(2, 0.0), np.zeros(2), steps=0)

    def test_non_finite_state_raises_flow_divergence(self):
        with pytest.raises(FlowDivergence, match="non-finite state"):
            sample_euler(constant_field_net(2, np.inf), np.zeros(2), steps=4)


class TestTraining:
    def test_loss_decreases_on_constant_target(self):
        data = constant_target_dataset(256, 4, 3.0, rng_seed=0)
        cfg = TrainConfig(steps=300, batch_size=64, learning_rate=5e-3,
                          hidden_width=32, rng_seed=0)
        net_l, net_r = make_nets(4, 0, cfg)
        trace = train(net_l, net_r, data, cfg)
        assert np.mean(trace[-20:]) < 0.05 * np.mean(trace[:20])

    def test_seed_determinism(self):
        data = constant_target_dataset(64, 3, 1.0, rng_seed=1)
        cfg = TrainConfig(steps=40, batch_size=16, rng_seed=7, hidden_width=16)
        results = []
        for _ in range(2):
            net_l, net_r = make_nets(3, 0, cfg)
            trace = train(net_l, net_r, data, cfg)
            results.append((trace, net_l.parameters()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    def test_zero_learning_rate_keeps_weights(self):
        data = constant_target_dataset(32, 2, 1.0)
        cfg = TrainConfig(steps=10, batch_size=8, learning_rate=0.0, hidden_width=16)
        net_l, net_r = make_nets(2, 0, cfg)
        before = {k: v.copy() for k, v in net_l.parameters().items()}
        train(net_l, net_r, data, cfg)
        for k, v in net_l.parameters().items():
            np.testing.assert_array_equal(v, before[k])

    def test_divergence_guard(self):
        # a target of 1e4 puts the summed loss near 4e8 at step 0
        data = constant_target_dataset(32, 2, 1e4)
        cfg = TrainConfig(steps=10, batch_size=8, hidden_width=16)
        net_l, net_r = make_nets(2, 0, cfg)
        with pytest.raises(RuntimeError, match="diverged"):
            train(net_l, net_r, data, cfg)

    def test_shared_weights_single_net(self):
        cfg = TrainConfig(steps=30, batch_size=16, hidden_width=16, shared_weights=True)
        net_l, net_r = make_nets(3, 0, cfg)
        assert net_l is net_r
        data = constant_target_dataset(64, 3, 2.0)
        trace = train(net_l, net_r, data, cfg)
        assert len(trace) == 30
        assert np.all(np.isfinite(trace))

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_forward_pass_per_net_per_step(self, monkeypatch, shared):
        calls = []
        real = VelocityFieldNet._forward_cached

        def counting(net, *args):
            calls.append(net)
            return real(net, *args)

        monkeypatch.setattr(VelocityFieldNet, "_forward_cached", counting)
        cfg = TrainConfig(steps=5, batch_size=8, hidden_width=8, shared_weights=shared)
        net_l, net_r = make_nets(2, 0, cfg)
        train(net_l, net_r, constant_target_dataset(16, 2, 1.0), cfg)
        assert calls == [net_l, net_r] * cfg.steps

    @pytest.mark.parametrize("shared", [False, True])
    def test_first_trace_entry_is_summed_channel_loss(self, shared):
        data = constant_target_dataset(32, 3, 2.0, rng_seed=3)
        cfg = TrainConfig(steps=1, batch_size=8, hidden_width=8, rng_seed=4,
                          shared_weights=shared)
        trace = train(*make_nets(3, 0, cfg), data, cfg)
        # Replay step 0's draws on fresh nets: batch indices, then timesteps
        # (the dataset stores its noise).
        net_l, net_r = make_nets(3, 0, cfg)
        rng = np.random.default_rng(cfg.rng_seed)
        idx = rng.integers(0, len(data), cfg.batch_size)
        t = rng.uniform(0.0, 1.0, cfg.batch_size)
        flag = np.ones((cfg.batch_size, 1))
        cond_l, cond_r = (flag, -flag) if shared else (None, None)
        expected = (cfm_loss(net_l, data.x0_left[idx], data.x1_left[idx], t, cond_l)
                    + cfm_loss(net_r, data.x0_right[idx], data.x1_right[idx], t, cond_r))
        assert trace[0] == expected

    def test_fresh_noise_per_step(self):
        # No stored x0: train draws standard-normal noise every step.
        rng = np.random.default_rng(2)
        x1 = 1.5 + 0.1 * rng.standard_normal((64, 2))
        data = FlowDataset(x1_left=x1, x1_right=-x1)
        cfg = TrainConfig(steps=300, batch_size=32, learning_rate=5e-3,
                          hidden_width=16, rng_seed=3)
        runs = []
        for _ in range(2):
            net_l, net_r = make_nets(2, 0, cfg)
            runs.append((train(net_l, net_r, data, cfg), net_r.parameters()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])
        trace = runs[0][0]
        assert np.all(np.isfinite(trace))
        assert np.mean(trace[-20:]) < 0.25 * np.mean(trace[:20])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_timestep_embedding_per_step(self, monkeypatch, shared):
        calls = []
        real = flow.timestep_embedding

        def counting(t, dim):
            calls.append(dim)
            return real(t, dim)

        monkeypatch.setattr(flow, "timestep_embedding", counting)
        cfg = TrainConfig(steps=5, batch_size=8, hidden_width=8, shared_weights=shared)
        train(*make_nets(2, 0, cfg), constant_target_dataset(16, 2, 1.0), cfg)
        assert len(calls) == cfg.steps

    def test_nets_with_different_embed_dims_get_their_own_embedding(self):
        cfg = TrainConfig(steps=3, batch_size=8, hidden_width=8)
        net_l = VelocityFieldNet(2, hidden_width=8, embed_dim=4, rng_seed=1)
        net_r = VelocityFieldNet(2, hidden_width=8, embed_dim=6, rng_seed=2)
        trace = train(net_l, net_r, constant_target_dataset(16, 2, 1.0), cfg)
        assert np.all(np.isfinite(trace))

    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_replay_through_oracle_adam(self, shared):
        data = constant_target_dataset(64, 3, 2.0, rng_seed=5)
        cfg = TrainConfig(steps=50, batch_size=16, learning_rate=5e-3, hidden_width=8,
                          rng_seed=6, shared_weights=shared)
        net_l, net_r = make_nets(3, 0, cfg)
        trace = train(net_l, net_r, data, cfg)

        ref_l, ref_r = make_nets(3, 0, cfg)
        state_l, state_r = {}, {}
        rng = np.random.default_rng(cfg.rng_seed)
        flag = np.ones((cfg.batch_size, 1))
        cond_l, cond_r = (flag, -flag) if shared else (None, None)
        replay = []
        for _ in range(cfg.steps):
            idx = rng.integers(0, len(data), cfg.batch_size)
            t = rng.uniform(0.0, 1.0, cfg.batch_size)
            args_l = (data.x0_left[idx], data.x1_left[idx], t, cond_l)
            args_r = (data.x0_right[idx], data.x1_right[idx], t, cond_r)
            replay.append(cfm_loss(ref_l, *args_l) + cfm_loss(ref_r, *args_r))
            grads_l, grads_r = backward(ref_l, *args_l), backward(ref_r, *args_r)
            if shared:
                grads = {k: grads_l[k] + grads_r[k] for k in grads_l}
                ref_l.set_parameters(oracle_adam_update(
                    state_l, ref_l.parameters(), grads, cfg.learning_rate))
            else:
                ref_l.set_parameters(oracle_adam_update(
                    state_l, ref_l.parameters(), grads_l, cfg.learning_rate))
                ref_r.set_parameters(oracle_adam_update(
                    state_r, ref_r.parameters(), grads_r, cfg.learning_rate))
        np.testing.assert_array_equal(trace, replay)
        for net, ref in ((net_l, ref_l), (net_r, ref_r)):
            for k, v in ref.parameters().items():
                np.testing.assert_array_equal(net.parameters()[k], v)

    def test_adam_first_step_is_signed_lr(self):
        # bias correction makes the very first update exactly lr * sign(g)
        params = {"w": np.array([1.0, -2.0])}
        adam = AdamState(params)
        out = adam.update(params, {"w": np.array([0.5, -3.0])}, 0.01)
        np.testing.assert_allclose(out["w"], [1.0 - 0.01, -2.0 + 0.01], rtol=1e-6)


_ADAM_SHAPES = st.sampled_from([(), (1,), (3,), (2, 3), (4, 1), (1, 5)])


class TestAdamOracle:
    @given(
        shapes=st.lists(_ADAM_SHAPES, min_size=1, max_size=6),
        steps=st.integers(1, 4),
        learning_rate=st.sampled_from([0.0, 1e-3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_flat_state_equals_per_array_oracle(self, shapes, steps, learning_rate, seed, data):
        rng = np.random.default_rng(seed)
        keys = [f"p{i}" for i in range(len(shapes))]
        params = {k: rng.standard_normal(shape) for k, shape in zip(keys, shapes)}
        adam, oracle_state = AdamState(params), {}
        oracle_params = params
        for _ in range(steps):
            order = data.draw(st.permutations(keys))
            grads = {k: rng.standard_normal(np.shape(params[k])) * 10.0 ** rng.integers(-3, 3)
                     for k in order}
            before = {k: np.copy(v) for k, v in params.items()}
            grads_before = {k: np.copy(v) for k, v in grads.items()}
            expected = oracle_adam_update(oracle_state, oracle_params, grads, learning_rate)
            out = adam.update(params, grads, learning_rate)
            for k in keys:
                np.testing.assert_array_equal(params[k], before[k])
                np.testing.assert_array_equal(grads[k], grads_before[k])
                assert np.shape(out[k]) == np.shape(params[k])
                np.testing.assert_array_equal(out[k], expected[k])
            params, oracle_params = out, expected


class TestDatasets:
    def test_constant_target_pairing(self):
        data = constant_target_dataset(10, 3, 2.5, rng_seed=4)
        np.testing.assert_allclose(data.x1_left - data.x0_left, 2.5, atol=1e-15)
        np.testing.assert_allclose(data.x1_right - data.x0_right, 2.5, atol=1e-15)
        assert len(data) == 10
        assert data.latent_dim == 3

    def test_mismatched_channels_rejected(self):
        with pytest.raises(ValueError):
            FlowDataset(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_half_stored_noise_rejected(self):
        with pytest.raises(ValueError):
            FlowDataset(np.zeros((4, 2)), np.zeros((4, 2)), x0_left=np.zeros((4, 2)))

    def test_cond_rows_checked(self):
        with pytest.raises(ValueError):
            FlowDataset(np.zeros((4, 2)), np.zeros((4, 2)), cond=np.zeros((3, 6)))


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        net_l = VelocityFieldNet(3, cond_dim=2, hidden_width=8, rng_seed=1)
        net_r = VelocityFieldNet(3, cond_dim=2, hidden_width=8, rng_seed=2)
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, [net_l, net_r])
        loaded = load_checkpoint(path)
        assert len(loaded) == 2
        for orig, new in zip((net_l, net_r), loaded):
            assert new.latent_dim == orig.latent_dim
            assert new.cond_dim == orig.cond_dim
            for k, v in orig.parameters().items():
                np.testing.assert_array_equal(new.parameters()[k], v)

    def test_forward_identical_after_reload(self, tmp_path, rng):
        net = VelocityFieldNet(4, hidden_width=8, rng_seed=3)
        path = tmp_path / "one.ckpt"
        save_checkpoint(path, [net])
        loaded = load_checkpoint(path)[0]
        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(loaded.forward(x, 0.3), net.forward(x, 0.3))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WAVE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    @given(
        latent_dim=st.integers(1, 4),
        cond_dim=st.integers(0, 3),
        hidden_width=st.integers(1, 8),
        n_nets=st.integers(1, 2),
    )
    def test_roundtrip_property(self, latent_dim, cond_dim, hidden_width, n_nets):
        nets = [
            VelocityFieldNet(latent_dim, cond_dim, hidden_width, rng_seed=seed)
            for seed in range(n_nets)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.ckpt"
            save_checkpoint(path, nets)
            loaded = load_checkpoint(path)
        assert len(loaded) == n_nets
        for orig, new in zip(nets, loaded):
            assert (new.latent_dim, new.cond_dim, new.hidden_width, new.embed_dim) == (
                orig.latent_dim, orig.cond_dim, orig.hidden_width, orig.embed_dim
            )
            for k, v in orig.parameters().items():
                np.testing.assert_array_equal(new.parameters()[k], v)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[:8],  # inside the version/count header
            lambda blob: blob[:-12],  # inside the last parameter array
            lambda blob: blob + b"\x00",  # trailing bytes after the last net
        ],
        ids=["cut_in_header", "cut_in_parameter", "trailing_bytes"],
    )
    def test_damaged_file_rejected(self, tmp_path, damage):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, [VelocityFieldNet(2, hidden_width=4)])
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="w.ckpt"):
            load_checkpoint(path)

    def test_header_dims_checked_before_allocation(self, tmp_path):
        # 60 bytes whose header claims hidden width 3000: a net of that size
        # would need ~69 MB of parameters.
        path = tmp_path / "big.ckpt"
        blob = b"SV2A" + struct.pack("<II", 1, 1) + struct.pack("<IIII", 2, 0, 3000, 8)
        path.write_bytes(blob + b"\x00" * (60 - len(blob)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="big.ckpt"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_loss_trace(path, [1.5, 0.25])
        lines = path.read_text().strip().splitlines()
        assert lines == ["step,loss", "0,1.5", "1,0.25"]
