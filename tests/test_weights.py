import numpy as np
import pytest
from scipy import stats

from pebble_logit import Dataset, RandomStream, fit_mle
from pebble_logit.perturb import DEFAULT_WEIGHTS, _block_size, _replicate_draws
from pebble_logit.rng import ScratchStream
from conftest import MU, bootstrap_score, random_dataset, replicate_draws, solve_replicate


def sample_weights(stream, n):
    """n weights from 2n uniforms, U1 the first n and U2 the next n, as a
    replicate's block holds them."""
    u = stream.generator.random(2 * n)
    return DEFAULT_WEIGHTS.draw(u[:n], u[n:])


def hand_case():
    """n=2 intercept-only data with balanced response: beta_hat = 0."""
    data = Dataset(x=np.ones((2, 1)), y=np.array([1.0, 0.0]))
    return data, fit_mle(data)


class TestSampleWeights:
    def test_support(self):
        w = sample_weights(RandomStream(1).derive("w", 0), 10_000)
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_determinism(self):
        a = sample_weights(RandomStream(2).derive("w", 0), 100)
        b = sample_weights(RandomStream(2).derive("w", 0), 100)
        assert np.array_equal(a, b)

    def test_beta_moments_million_draws(self):
        w = sample_weights(RandomStream(3).derive("w", 0), 1_000_000)
        mean = w.mean()
        centered = w - mean
        assert abs(mean - 0.25) <= 0.002
        assert abs(np.mean(centered**2) - 0.0625) <= 0.002
        assert abs(np.mean(centered**3) - 0.015625) <= 0.002


class TestWeightLaw:
    def test_tan_form_matches_cosine_form(self):
        # G* = U1 cos²(πv/2), written as U1 / (1 + tan²(πv/2)).
        v = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 0.25, 0.75],
                            RandomStream(4).derive("v", 0).generator.random(100_000)])
        u1 = np.concatenate([np.ones(6), RandomStream(4).derive("u", 0).generator.random(100_000)])
        got = DEFAULT_WEIGHTS.draw(u1, v)
        assert np.max(np.abs(got - u1 * np.cos(np.pi * v / 2) ** 2)) <= 1e-15

    def test_weights_follow_beta_half_three_halves(self):
        # 1000 replicates at n = 1000, from one call.
        gen = RandomStream(7).derive("boot", 0).generator
        weights = _replicate_draws(gen, range(1000), 1000, 1)[0].ravel() * MU + MU
        assert weights.size >= 1_000_000
        assert stats.kstest(weights, stats.beta(0.5, 1.5).cdf).pvalue > 1e-3

    def test_jitter_is_standard_normal(self):
        # Z* of 1000 replicates at p = 1001, from one call.
        gen = RandomStream(6).derive("boot", 0).generator
        z = _replicate_draws(gen, range(1000), 1, 1001)[1].ravel()
        assert z.size >= 1_000_000
        assert stats.kstest(z, stats.norm.cdf).pvalue > 1e-3


class TestReplicateBlocks:
    @pytest.mark.parametrize("n, p", [(100, 4), (200, 8), (7, 3)])
    def test_chunk_equals_one_row_draws(self, n, p):
        # A chunk of k rows is byte-identical to k one-row draws.
        stream, scratch = RandomStream(12), ScratchStream()
        nu, z = _replicate_draws(scratch.rekey(stream, "boot", 0), range(3, 12), n, p)
        for i, r in enumerate(range(3, 12)):
            gen = scratch.rekey(stream, "boot", 0)
            one_nu, one_z = _replicate_draws(gen, range(r, r + 1), n, p)
            assert one_nu.tobytes() == nu[i:i + 1].tobytes()
            assert one_z.tobytes() == z[i:i + 1].tobytes()

    @pytest.mark.parametrize("n, p", [(100, 4), (200, 8), (7, 3)])
    def test_block_replays_from_fresh_stream(self, n, p):
        # Row i of a chunk is replicate r of the contract, a fresh
        # ("boot", 0) generator advanced by r·M/4.
        stream = RandomStream(13)
        nu, z = _replicate_draws(stream.derive("boot", 0).generator, range(4, 9), n, p)
        for i, r in enumerate(range(4, 9)):
            weights, z_r = replicate_draws(stream, r, n, p)
            assert nu[i].tobytes() == ((weights - MU) / MU).tobytes()
            assert z[i].tobytes() == z_r.tobytes()

    def test_block_size(self):
        # 2n weight uniforms and 2⌈p/2⌉ jitter uniforms, up to a multiple of 4.
        assert [_block_size(n, p) for n, p in [(100, 4), (200, 8), (7, 3), (20000, 11), (1, 1)]] \
            == [204, 408, 20, 40012, 4]


class TestBootstrapScore:
    def test_degenerate_weights_zero(self):
        rng = np.random.default_rng(20)
        data = random_dataset(rng, 30, 2)
        fitted = fit_mle(data)
        value = bootstrap_score(fitted.beta_hat, data, fitted.beta_hat, np.full(30, MU))
        assert np.max(np.abs(value)) <= 30 * 1e-10

    def test_hand_case(self):
        data, fitted = hand_case()
        weights = np.array([0.5, 0.25])
        # first term: (1-0.5)*1*((0.5-mu)/mu) + (0-0.5)*1*0 = 0.5
        # equation: 0.5 + (1 - 2 p(t)) = 0  ->  p(t) = 0.75  ->  t = ln 3
        value = bootstrap_score(np.array([np.log(3.0)]), data, fitted.beta_hat, weights)
        assert value[0] == pytest.approx(0.0, abs=1e-12)

    def test_root_property(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 40, 3)
        fitted = fit_mle(data)
        weights = sample_weights(RandomStream(22).derive("w", 0), 40)
        beta_star = solve_replicate(data, fitted.beta_hat, weights)
        value = bootstrap_score(beta_star, data, fitted.beta_hat, weights)
        assert np.max(np.abs(value)) <= 40 * 1e-10


class TestSolveBootstrap:
    def test_degenerate_weights_return_mle(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 35, 2)
        fitted = fit_mle(data)
        beta_star = solve_replicate(data, fitted.beta_hat, np.full(35, MU))
        assert np.max(np.abs(beta_star - fitted.beta_hat)) <= 10 * 1e-10

    @pytest.mark.parametrize("trial", range(20))
    def test_degenerate_identity_many_datasets(self, trial):
        rng = np.random.default_rng(6000 + trial)
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, 4))
        data = random_dataset(rng, n, p)
        fitted = fit_mle(data)
        beta_star = solve_replicate(data, fitted.beta_hat, np.full(n, MU))
        assert np.max(np.abs(beta_star - fitted.beta_hat)) <= 10 * 1e-10

    def test_hand_case_ln3(self):
        data, fitted = hand_case()
        beta_star = solve_replicate(data, fitted.beta_hat, np.array([0.5, 0.25]))
        assert beta_star[0] == pytest.approx(np.log(3.0), abs=1e-8)

    @pytest.mark.parametrize("trial", range(10))
    def test_bisection_oracle_1d(self, trial):
        rng = np.random.default_rng(7000 + trial)
        data = random_dataset(rng, 20, 1)
        fitted = fit_mle(data)
        weights = sample_weights(RandomStream(7100 + trial).derive("w", 0), 20)
        beta_star = solve_replicate(data, fitted.beta_hat, weights)

        def equation(v):
            return float(bootstrap_score(np.array([v]), data, fitted.beta_hat, weights)[0])

        lo, hi = -60.0, 60.0
        if equation(lo) * equation(hi) > 0:
            pytest.skip("replicate root outside bracket (separated draw)")
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            if equation(lo) * equation(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert beta_star[0] == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_reproducible_from_seed(self):
        rng = np.random.default_rng(25)
        data = random_dataset(rng, 30, 2)
        fitted = fit_mle(data)
        w1 = sample_weights(RandomStream(9).derive("boot", 4), 30)
        w2 = sample_weights(RandomStream(9).derive("boot", 4), 30)
        a = solve_replicate(data, fitted.beta_hat, w1)
        b = solve_replicate(data, fitted.beta_hat, w2)
        assert np.array_equal(a, b)
