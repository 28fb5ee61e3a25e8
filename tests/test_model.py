import math
import tracemalloc

import numpy as np
import pytest

from gnodeformer import autodiff
from gnodeformer.autodiff import Tensor, backward
from gnodeformer.errors import ConfigError
from gnodeformer.graphs import SbmConfig, build_normalized_laplacian, generate_sbm
from gnodeformer.model import (
    EPSILON_MAX,
    ModelConfig,
    count_parameters,
    decode_eigenvalues,
    eigen_encode,
    forward,
    init_params,
    loss_and_metrics,
    param_shapes,
    residual_history_update,
    rk_block,
    rk_increment,
    spectral_conv_head,
    transformer_layer_f,
    write_filter_table,
)
from gnodeformer.spectral import SpectralBasis, sym_eig
from tests.helpers import (
    central_difference_grads,
    max_rel_err,
    named_grads,
    no_masks,
    spectral_filter_apply,
)


def tiny_dataset(seed=0, n_per_block=6, feature_dim=6):
    ds = generate_sbm(
        SbmConfig(
            block_sizes=(n_per_block, n_per_block),
            p_in=0.6,
            p_out=0.1,
            feature_dim=feature_dim,
            signal=1.5,
            seed=seed,
        )
    )
    return ds, sym_eig(build_normalized_laplacian(ds), unit_band=True)


def tiny_config(**overrides):
    defaults = dict(
        feature_dim=6,
        classes=2,
        d=4,
        heads=2,
        layers=1,
        rk_order=2,
        hidden=4,
        epsilon=100.0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestConfig:
    def test_channels_default_heads_plus_one(self):
        assert tiny_config(heads=2).channels == 3
        assert tiny_config(heads=4, d=8).channels == 5

    def test_validation(self):
        with pytest.raises(ConfigError, match="even"):
            tiny_config(d=5, heads=1)
        with pytest.raises(ConfigError, match="divide"):
            tiny_config(d=4, heads=3)
        with pytest.raises(ConfigError, match="rk_order"):
            tiny_config(rk_order=3)
        with pytest.raises(ConfigError, match="activation"):
            tiny_config(activation="swish")
        with pytest.raises(ConfigError, match="dropout"):
            tiny_config(dropout=1.0)
        with pytest.raises(ConfigError, match="block"):
            tiny_config(layers=0)
        with pytest.raises(ConfigError, match="epsilon"):
            tiny_config(epsilon=0.0)
        tiny_config(epsilon=EPSILON_MAX)
        with pytest.raises(ConfigError, match="epsilon"):
            tiny_config(epsilon=np.nextafter(EPSILON_MAX, np.inf))


class TestParameters:
    def oracle_config(self):
        return ModelConfig(
            feature_dim=12, classes=3, d=8, heads=2, layers=2, rk_order=2, hidden=16
        )

    def test_count_matches_hand_tally(self):
        # input 80, two blocks of 866, final norm 16, decoder 99, head
        # 1027: counted term by term from the shape table
        assert count_parameters(self.oracle_config()) == 2954

    def test_count_equals_paramset_size(self):
        cfg = self.oracle_config()
        params = init_params(cfg, seed=0)
        assert params.flat.size == count_parameters(cfg)
        assert params.flat.shape == (2954,)
        assert params.names() == list(param_shapes(cfg))

    def test_count_increases_with_width(self):
        narrow = count_parameters(tiny_config(d=4, heads=2))
        wide = count_parameters(tiny_config(d=8, heads=2))
        assert wide > narrow

    def test_init_deterministic(self):
        cfg = self.oracle_config()
        a = init_params(cfg, seed=3).flat
        b = init_params(cfg, seed=3).flat
        c = init_params(cfg, seed=4).flat
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_init_values(self):
        cfg = self.oracle_config()
        params = init_params(cfg, seed=1)
        np.testing.assert_array_equal(
            params["layer0/ln1/gain"].data, np.ones((1, 8))
        )
        np.testing.assert_array_equal(params["input_proj/b"].data, np.zeros((1, 8)))
        np.testing.assert_array_equal(params["layer0/rk_w"].data, [[0.5, 0.5]])
        w = params["layer0/attn/q0"].data
        assert np.abs(w).max() <= math.sqrt(6.0 / (8 + 4))
        assert w.std() > 0

    def test_rk4_weights_classical(self):
        params = init_params(tiny_config(rk_order=4), seed=0)
        np.testing.assert_allclose(
            params["layer0/rk_w"].data, [[1 / 6, 1 / 3, 1 / 3, 1 / 6]], atol=1e-15
        )

    def test_frozen_rk_weights_get_zero_grads(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config(learn_rk_weights=False)
        params = init_params(cfg, seed=0)
        logits, _ = forward(ds, basis, cfg, params)
        loss, _ = loss_and_metrics(logits, ds.labels, ds.train_mask)
        grads = params.like(backward(loss, params))
        np.testing.assert_array_equal(grads["layer0/rk_w"].data, np.zeros((1, 2)))
        assert np.abs(grads["decoder/w1"].data).max() > 0


class TestEigenEncode:
    def test_zero_eigenvalue_row(self):
        out = eigen_encode(np.array([0.0]), tiny_config())
        np.testing.assert_array_equal(out, [[0.0, 0.0, 1.0, 0.0, 1.0]])

    def test_known_row(self):
        # frozen from a scalar evaluation of the encoding formulas
        out = eigen_encode(np.array([2.0]), tiny_config(epsilon=100.0, d=4, heads=2))
        expected = [
            2.0,
            -0.8732972972139946,
            0.4871876750070059,
            0.9092974268256817,
            -0.4161468365471424,
        ]
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_shape(self):
        out = eigen_encode(np.linspace(0, 2, 7), tiny_config(d=8, heads=2))
        assert out.shape == (7, 9)

    def test_distinct_eigenvalues_distinct_rows(self):
        cfg = tiny_config(epsilon=1.0)
        gammas = np.array([0.3, 0.3 + math.pi / 2])
        out = eigen_encode(gammas, cfg)
        assert abs(out[0, 1] - out[1, 1]) > 1e-6


class TestRkBlock:
    def scalar_field(self, lam):
        return lambda z: z.scale(lam)

    def weights(self, order):
        from gnodeformer.model import RK_WEIGHTS

        return Tensor(np.array([RK_WEIGHTS[order]]))

    def test_zero_field_is_identity(self, rng):
        z = Tensor(rng.standard_normal((3, 4)))
        out = rk_block(z, lambda t: t.scale(0.0), 2, self.weights(2))
        np.testing.assert_array_equal(out.data, z.data)

    def test_euler_step(self):
        out = rk_block(Tensor(1.0), self.scalar_field(-0.1), 1, self.weights(1))
        assert abs(out.item() - 0.9) < 1e-15

    def test_rk2_taylor_value(self):
        out = rk_block(Tensor(1.0), self.scalar_field(-0.1), 2, self.weights(2))
        assert abs(out.item() - 0.905) < 1e-12

    def test_rk4_taylor_value(self):
        out = rk_block(Tensor(1.0), self.scalar_field(-0.1), 4, self.weights(4))
        assert abs(out.item() - 0.9048375) < 1e-12

    def test_order_slopes(self):
        hs = np.array([0.1, 0.05, 0.025])
        for order, target in ((2, 3.0), (4, 5.0)):
            errs = []
            for h in hs:
                out = rk_block(
                    Tensor(1.0), self.scalar_field(-h), order, self.weights(order)
                )
                errs.append(abs(out.item() - math.exp(-h)))
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert abs(slope - target) < 0.3, f"order {order}: slope {slope}"

    def test_custom_weights_change_result(self):
        # zeroing the second stage turns the midpoint method into Euler
        out = rk_block(
            Tensor(1.0), self.scalar_field(-0.1), 2, Tensor(np.array([[1.0, 0.0]]))
        )
        assert abs(out.item() - 0.9) < 1e-15

    def test_unsupported_order(self):
        with pytest.raises(ConfigError, match="order"):
            rk_increment(Tensor(1.0), self.scalar_field(1.0), 3, Tensor(np.zeros((1, 3))))

    def test_weight_shape_checked(self):
        with pytest.raises(ConfigError, match="weights"):
            rk_increment(Tensor(1.0), self.scalar_field(1.0), 2, Tensor(np.zeros((1, 4))))

    def test_gradient_flows_through_stages(self, rng):
        z = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(np.array([[0.5, 0.5]]), requires_grad=True)
        scale = Tensor(np.full((1, 1), -0.3), requires_grad=True)

        def run():
            return rk_block(z, lambda t: t * scale, 2, w).sum()

        grads = named_grads(run(), {"z": z, "w": w, "s": scale})
        fd = central_difference_grads(run, [z, w, scale])
        for got, want in zip((grads["z"], grads["w"], grads["s"]), fd):
            assert max_rel_err(got, want) < 1e-6


class TestResidualHistory:
    def test_zero_increment(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        gain, bias = Tensor(np.ones((1, 6))), Tensor(np.zeros((1, 6)))
        normalized, raw = residual_history_update(x, x.scale(0.0), gain, bias)
        np.testing.assert_array_equal(raw.data, x.data)
        np.testing.assert_allclose(
            normalized.data, Tensor(x.data).layer_norm_rows().data, atol=1e-15
        )

    def test_sum_before_normalize_pinned(self, rng):
        # the running sum is normalized after adding the increment;
        # normalize-then-add gives a different tensor and is ruled out
        x = Tensor(rng.standard_normal((3, 8)))
        y = Tensor(rng.standard_normal((3, 8)))
        gain, bias = Tensor(np.ones((1, 8))), Tensor(np.zeros((1, 8)))
        normalized, raw = residual_history_update(x, y, gain, bias)

        s = x.data + y.data
        mu = s.mean(axis=1, keepdims=True)
        var = ((s - mu) ** 2).mean(axis=1, keepdims=True)
        chosen = (s - mu) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(normalized.data, chosen, atol=1e-12)

        rejected = Tensor(x.data).layer_norm_rows().data + y.data
        assert np.abs(normalized.data - rejected).max() > 1e-3
        np.testing.assert_array_equal(raw.data, s)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigError, match="history"):
            residual_history_update(
                Tensor(np.zeros((2, 3))),
                Tensor(np.zeros((3, 2))),
                Tensor(np.ones((1, 3))),
                Tensor(np.zeros((1, 3))),
            )


def layer_attention(z, params, layer, cfg):
    """Per-head attention probabilities P = E / r of one block, wired as
    in transformer_layer_f."""
    p = lambda key: params[f"layer{layer}/{key}"]
    zn = z.layer_norm_rows() * p("ln1/gain") + p("ln1/bias")
    scale = 1.0 / math.sqrt(cfg.head_dim)
    mats = []
    for h in range(cfg.heads):
        _, weights, row_sums, _ = autodiff._attend(
            (zn @ p(f"attn/q{h}")).data, (zn @ p(f"attn/k{h}")).data,
            (zn @ p(f"attn/v{h}")).data, scale, 0.0, 0,
        )
        mats.append(weights / row_sums)
    return mats


class TestTransformerLayer:
    def test_attention_rows_sum_to_one(self, rng):
        cfg = tiny_config(d=8, heads=2)
        params = init_params(cfg, seed=0)
        z = Tensor(rng.standard_normal((5, 8)))
        mats = layer_attention(z, params, 0, cfg)
        assert len(mats) == 2
        for a in mats:
            assert a.shape == (5, 5)
            np.testing.assert_allclose(a.sum(axis=1), np.ones(5), atol=1e-12)

    def test_single_token_attention_is_one(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        z = Tensor(rng.standard_normal((1, 4)))
        out = transformer_layer_f(z, params, 0, cfg)
        for a in layer_attention(z, params, 0, cfg):
            np.testing.assert_array_equal(a, [[1.0]])
        assert out.shape == (1, 4)

    def test_permutation_equivariance(self, rng):
        cfg = tiny_config(d=8, heads=2)
        params = init_params(cfg, seed=2)
        z = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out = transformer_layer_f(Tensor(z), params, 0, cfg).data
        out_perm = transformer_layer_f(Tensor(z[perm]), params, 0, cfg).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_width_checked(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError, match="width"):
            transformer_layer_f(Tensor(np.zeros((3, 6))), params, 0, cfg)


class TestDecoderAndHead:
    def test_zero_output_layer_gives_zero_channels(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        params["decoder/w2"].data[:] = 0.0
        params["decoder/b2"].data[:] = 0.0
        out = decode_eigenvalues(Tensor(rng.standard_normal((5, 4))), params, cfg)
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_filter_equals_laplacian_action(self):
        # applying the original eigenvalues as the filter reproduces L @ H
        ds, basis = tiny_dataset()
        lap = build_normalized_laplacian(ds)
        rng = np.random.default_rng(1)
        h = rng.standard_normal((ds.n, 3))
        u = Tensor(basis.eigenvectors)
        col = Tensor(basis.eigenvalues.reshape(-1, 1))
        filtered = spectral_filter_apply(u, u.T, col, Tensor(h))
        np.testing.assert_allclose(filtered.data, lap @ h, atol=1e-9)

    def test_head_equals_per_channel_filters(self, rng):
        # the head is the merged composition, bit for bit: one U^T h0 and
        # one U product shared by every channel; it agrees with filtering
        # each channel on its own to rounding
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        gamma = Tensor(rng.standard_normal((ds.n, cfg.channels)))
        logits, gamma_eff = spectral_conv_head(basis, gamma, ds.features, params, cfg)
        h0 = (Tensor(ds.features) @ params["head/w_in"] + params["head/b_in"]).relu()
        u = Tensor(basis.eigenvectors)
        projected = u.T @ h0
        mixed = projected @ params["head/mix0"]
        for m in range(1, cfg.channels):
            col = Tensor(gamma.data[:, m : m + 1])
            mixed = mixed + (col * projected) @ params[f"head/mix{m}"]
        merged = (h0 + u @ mixed) @ params["head/w_out"] + params["head/b_out"]
        np.testing.assert_array_equal(logits.data, merged.data)

        total = h0
        for m in range(cfg.channels):
            col = Tensor(gamma_eff.data[:, m : m + 1])
            filtered = spectral_filter_apply(u, u.T, col, h0)
            total = total + filtered @ params[f"head/mix{m}"]
        per_channel = total @ params["head/w_out"] + params["head/b_out"]
        np.testing.assert_allclose(logits.data, per_channel.data, rtol=1e-12, atol=0)

    def test_head_makes_two_basis_products_each_way(self, monkeypatch, rng):
        # one U^T and one U product for all channels, in the forward and in
        # the backward; filtering channel by channel makes four of each
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        n = ds.n
        counts = {"forward": 0, "backward": 0}
        matmul = Tensor.__matmul__

        def counting_matmul(a, b):
            out = matmul(a, b)
            if (n, n) in (a.shape, b.shape):
                counts["forward"] += 1
                if out._backward is not None:
                    inner = out._backward

                    def counted(g):
                        counts["backward"] += 1
                        inner(g)

                    out._backward = counted
            return out

        monkeypatch.setattr(Tensor, "__matmul__", counting_matmul)
        gamma = Tensor(rng.standard_normal((n, cfg.channels)), requires_grad=True)
        logits, _ = spectral_conv_head(basis, gamma, ds.features, params, cfg)
        loss, _ = loss_and_metrics(logits, ds.labels, np.ones(n, dtype=bool))
        backward(loss, params)
        assert counts == {"forward": 2, "backward": 2}

    def test_zero_learned_channels_use_identity_path_only(self, rng):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        gamma = Tensor(np.zeros((ds.n, cfg.channels)))
        logits, gamma_eff = spectral_conv_head(
            basis, gamma, ds.features, params, cfg
        )
        np.testing.assert_array_equal(gamma_eff.data[:, 0], np.ones(ds.n))
        np.testing.assert_array_equal(gamma_eff.data[:, 1:], np.zeros((ds.n, 2)))
        # learned-channel mixers see a zero filter, so they cannot matter
        params["head/mix1"].data[:] = 99.0
        logits2, _ = spectral_conv_head(basis, gamma, ds.features, params, cfg)
        np.testing.assert_array_equal(logits.data, logits2.data)

    def test_logits_shape(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config(classes=2)
        params = init_params(cfg, seed=0)
        logits, gamma = forward(ds, basis, cfg, params)
        assert logits.shape == (ds.n, 2)
        assert gamma.shape == (ds.n, cfg.channels)


class TestForward:
    def test_untrained_loss_near_uniform(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        logits, _ = forward(ds, basis, cfg, params)
        assert np.isfinite(logits.data).all()
        loss, acc = loss_and_metrics(logits, ds.labels, np.ones(ds.n, dtype=bool))
        assert 0.0 < loss.item() < 5 * math.log(2)
        assert 0.0 <= acc <= 1.0

    def test_deterministic(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        a, _ = forward(ds, basis, cfg, params, dropout_seed=3)
        b, _ = forward(ds, basis, cfg, params, dropout_seed=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_identity_channel_forced(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        _, gamma = forward(ds, basis, cfg, params)
        np.testing.assert_array_equal(gamma.data[:, 0], np.ones(ds.n))
        assert np.abs(gamma.data[:, 1:]).max() > 0

    def test_permutation_consistency(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)

        permuted = type(ds)(
            n=ds.n,
            edges=np.argsort(perm)[ds.edges],
            features=ds.features[perm],
            labels=ds.labels[perm],
            num_classes=ds.num_classes,
            **no_masks(ds.n),
        )
        basis_perm = SpectralBasis(
            eigenvalues=basis.eigenvalues, eigenvectors=basis.eigenvectors[perm]
        )
        base, _ = forward(ds, basis, cfg, params)
        moved, _ = forward(permuted, basis_perm, cfg, params)
        np.testing.assert_allclose(moved.data, base.data[perm], atol=1e-9)

    @pytest.mark.parametrize(
        "p_in, p_out, repeated",
        [(0.3, 0.03, False), (0.01, 0.005, True)],
        ids=["connected", "sparse"],
    )
    def test_relabelled_graph_permutes_eval_logits(self, p_in, p_out, repeated):
        # end to end: relabel the nodes, rebuild the Laplacian and solve
        # for its basis again. On the sparse graph eigenvalue 1 is
        # repeated, so the two solves may pick different bases of its
        # eigenspace; the logits must follow the relabelling regardless
        ds = generate_sbm(
            SbmConfig(block_sizes=(40, 40, 40), p_in=p_in, p_out=p_out,
                      feature_dim=6, seed=3)
        )
        perm = np.random.default_rng(0).permutation(ds.n)
        relabelled = type(ds)(
            n=ds.n,
            edges=np.argsort(perm)[ds.edges],
            features=ds.features[perm],
            labels=ds.labels[perm],
            num_classes=ds.num_classes,
            **no_masks(ds.n),
        )
        cfg = tiny_config(classes=3, rk_order=4, layers=2)
        params = init_params(cfg, seed=7)
        logits = []
        for graph in (ds, relabelled):
            basis = sym_eig(build_normalized_laplacian(graph), unit_band=True)
            ones = int(np.isclose(basis.eigenvalues, 1.0, rtol=0, atol=1e-9).sum())
            assert (ones > 1) == repeated, ones
            logits.append(forward(graph, basis, cfg, params)[0].data)
        np.testing.assert_allclose(logits[1], logits[0][perm], rtol=0, atol=1e-10)

    def test_rotation_inside_degenerate_eigenspaces_keeps_eval_logits(self):
        # two copies of one component repeat every eigenvalue, so a solver
        # may return any orthonormal basis of each eigenspace. With a
        # cluster's eigenvalues given one shared value, every filter
        # U diag(g) U^T is blind to a rotation inside the cluster, so the
        # logits are too; this is what makes never cutting a cluster safe
        part = generate_sbm(
            SbmConfig(block_sizes=(15, 15, 15), p_in=0.3, p_out=0.03,
                      feature_dim=6, seed=3)
        )
        m = part.n
        ds = type(part)(
            n=2 * m,
            edges=np.concatenate([part.edges, part.edges + m]),
            features=np.concatenate([part.features, part.features]),
            labels=np.concatenate([part.labels, part.labels]),
            num_classes=part.num_classes,
            **no_masks(2 * m),
        )
        laplacian = build_normalized_laplacian(ds)
        basis = sym_eig(laplacian, unit_band=True)
        values, vectors = basis.eigenvalues.copy(), basis.eigenvectors
        rotated = vectors.copy()
        # clusters: maximal runs of eigenvalues with neighbouring gaps <= 1e-9
        cuts = np.flatnonzero(np.diff(values) > 1e-9) + 1
        clusters = [c for c in np.split(np.arange(ds.n), cuts) if c.size > 1]
        assert sum(c.size for c in clusters) == ds.n
        rng = np.random.default_rng(0)
        for c in clusters:
            values[c] = values[c].mean()
            q, _ = np.linalg.qr(rng.standard_normal((c.size, c.size)))
            rotated[:, c] = vectors[:, c] @ q
        assert np.abs(rotated - vectors).max() > 0.1
        SpectralBasis(eigenvalues=values, eigenvectors=rotated).validate(
            laplacian, unit_band=True
        )
        cfg = tiny_config(classes=3, rk_order=4, layers=2)
        params = init_params(cfg, seed=7)
        logits = [
            forward(ds, SpectralBasis(eigenvalues=values, eigenvectors=u), cfg, params)[0].data
            for u in (vectors, rotated)
        ]
        np.testing.assert_allclose(logits[1], logits[0], rtol=0, atol=1e-10)

    def test_dropout_changes_training_output_only(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config(dropout=0.5)
        params = init_params(cfg, seed=0)
        train_a, _ = forward(ds, basis, cfg, params, dropout_seed=1)
        train_b, _ = forward(ds, basis, cfg, params, dropout_seed=2)
        # no seed is eval mode: the forward of the same model without dropout
        eval_, _ = forward(ds, basis, cfg, params)
        plain, _ = forward(ds, basis, tiny_config(dropout=0.0), params, dropout_seed=1)
        assert not np.array_equal(train_a.data, train_b.data)
        assert not np.array_equal(train_a.data, eval_.data)
        np.testing.assert_array_equal(eval_.data, plain.data)

    def test_config_mismatch_rejected(self):
        ds, basis = tiny_dataset()
        cfg = tiny_config(feature_dim=9)
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError, match="features"):
            forward(ds, basis, cfg, params)


def no_graph(t: Tensor) -> bool:
    return not t.requires_grad and t._parents == () and t._backward is None


class TestDetachedForward:
    """A forward over params.detached() builds no graph: no backward
    closures, no gelu slope and no held n x n attention array. It must
    give the graph-building forward's bits."""

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "gelu"])
    @pytest.mark.parametrize("rk", [1, 2, 4])
    def test_equals_graph_forward(self, rk, activation, dropout):
        # 300 nodes: two row tiles per attention call, the second short
        ds = generate_sbm(SbmConfig((100, 100, 100), 0.1, 0.02, feature_dim=6, seed=2))
        basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
        assert 1 < ds.n / autodiff._tile_rows(ds.n) < 2
        cfg = ModelConfig(
            feature_dim=6, classes=3, d=8, heads=2, layers=2, rk_order=rk, hidden=8,
            dropout=dropout, activation=activation,
        )
        params = init_params(cfg, seed=3)
        seed = 5 if dropout else None
        logits, gamma = forward(ds, basis, cfg, params, seed)
        got_logits, got_gamma = forward(ds, basis, cfg, params.detached(), seed)
        assert logits.requires_grad and no_graph(got_logits)
        assert got_logits.data.tobytes() == logits.data.tobytes()
        assert got_gamma.data.tobytes() == gamma.data.tobytes()

    def test_holds_no_square_array(self, monkeypatch):
        # n = 600: under tracemalloc, the graph-building forward holds its
        # 16 E arrays (2 layers x 4 stages x 2 heads) on a fresh pool; a
        # detached one peaks below a single n x n array
        ds = generate_sbm(SbmConfig((200, 200, 200), 0.05, 0.01, seed=1))
        basis = sym_eig(build_normalized_laplacian(ds), unit_band=True)
        cfg = ModelConfig(ds.feature_dim, ds.num_classes, rk_order=4, activation="gelu")
        params = init_params(cfg, seed=1)
        square = ds.n * ds.n * 8

        def traced_forward(ps):
            monkeypatch.setattr(autodiff, "_POOL", autodiff._ArrayPool())
            tracemalloc.start()
            try:
                forward(ds, basis, cfg, ps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        detached = traced_forward(params.detached())
        assert detached < square, detached / square
        assert traced_forward(params) > 16 * square


class TestLossAndMetrics:
    def test_perfect_logits(self):
        labels = np.array([0, 1, 2])
        logits = Tensor(np.eye(3) * 50.0)
        loss, acc = loss_and_metrics(logits, labels, np.ones(3, dtype=bool))
        assert acc == 1.0
        assert loss.item() < 1e-12

    def test_uniform_logits_loss(self):
        loss, _ = loss_and_metrics(
            Tensor(np.zeros((4, 5))), np.zeros(4, dtype=int), np.ones(4, dtype=bool)
        )
        assert abs(loss.item() - math.log(5)) < 1e-12

    def test_random_baseline_accuracy(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((2000, 4)))
        labels = rng.integers(0, 4, size=2000)
        _, acc = loss_and_metrics(logits, labels, np.ones(2000, dtype=bool))
        sigma = math.sqrt(0.25 * 0.75 / 2000)
        assert abs(acc - 0.25) <= 3 * sigma


class TestFullModelGradients:
    def run_fd(self, cfg, seed=0):
        ds, basis = tiny_dataset(seed=seed)
        params = init_params(cfg, seed=seed)

        def compute():
            logits, _ = forward(ds, basis, cfg, params, dropout_seed=11)
            return loss_and_metrics(logits, ds.labels, ds.train_mask)[0]

        grads = params.like(backward(compute(), params))
        fd = central_difference_grads(compute, list(params.values()))
        worst = 0.0
        for name, want in zip(params.names(), fd):
            err = max_rel_err(grads[name].data, want)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"
        return worst

    def test_rk2_full_model(self):
        self.run_fd(tiny_config())

    def test_rk4_full_model(self):
        self.run_fd(tiny_config(rk_order=4))

    def test_with_dropout_enabled(self):
        self.run_fd(tiny_config(dropout=0.2))

    def test_two_layer_stack(self):
        self.run_fd(tiny_config(layers=2))


class TestFilterExport:
    def test_table_round_trips(self, tmp_path):
        ds, basis = tiny_dataset()
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        _, gamma = forward(ds, basis, cfg, params)
        path = write_filter_table(tmp_path / "filters.txt", basis.eigenvalues, gamma.data)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["gamma_original", "channel0", "channel1", "channel2"]
        body = np.loadtxt(path, skiprows=1)
        np.testing.assert_array_equal(body[:, 0], basis.eigenvalues)
        np.testing.assert_array_equal(body[:, 1:], gamma.data)


class TestBackwardWork:
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_no_gradient_built_for_constants(self, monkeypatch, dropout):
        # the basis U, the features, the encoded eigenvalues and the one-hot
        # and channel-mask constants need no gradient: no rule may build one
        ds, basis = tiny_dataset()
        cfg = tiny_config(rk_order=4, dropout=dropout)
        params = init_params(cfg, seed=0)
        targets = []
        real_acc = autodiff._acc

        def acc(t, g):
            targets.append(t.requires_grad)
            real_acc(t, g)

        monkeypatch.setattr(autodiff, "_acc", acc)
        logits, _ = forward(ds, basis, cfg, params, dropout_seed=5)
        loss, _ = loss_and_metrics(logits, ds.labels, ds.train_mask)
        backward(loss, params)
        assert targets and all(targets)
