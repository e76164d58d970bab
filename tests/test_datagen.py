import numpy as np
import pytest

from curvecast import ConfigError, DataError, SynthSpec, generate


class TestGenerate:
    def test_shapes(self):
        fts, truth = generate(SynthSpec(n=30, tau=12, num_factors=2, seed=4))
        assert fts.values.shape == (30, 11)
        assert fts.grid.tau == 12
        assert truth.scores.shape == (30, 2)
        assert truth.factors.shape == (11, 2)
        assert truth.mean.shape == (11,)

    def test_deterministic(self):
        spec = SynthSpec(n=25, tau=10, num_factors=2, noise_sd=0.2, seed=17)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.values, b.values)
        c, _ = generate(SynthSpec(n=25, tau=10, num_factors=2, noise_sd=0.2, seed=18))
        assert not np.array_equal(a.values, c.values)

    def test_noiseless_factor_identity(self):
        fts, truth = generate(SynthSpec(n=30, tau=12, num_factors=2, noise_sd=0.0, seed=4))
        recon = truth.mean + truth.scores @ truth.factors.T
        assert np.array_equal(fts.values, recon)

    def test_zero_mean_scale(self):
        _, truth = generate(SynthSpec(n=20, tau=10, num_factors=2, mean_scale=0.0, seed=1))
        assert np.all(truth.mean == 0.0)


class TestLinkedMode:
    def test_late_block_truth(self):
        spec = SynthSpec(
            n=30, tau=12, num_factors=2, noise_sd=0.1, seed=4,
            link_split=6, link_matrix=((1.0, 0.2), (0.1, 0.8)), num_late_factors=2,
        )
        fts, truth = generate(spec)
        assert fts.values.shape == (30, 11)
        assert truth.link_split == 6
        assert truth.late_scores.shape == (30, 2)
        assert truth.late_factors.shape == (6, 2)

    def test_requires_link_matrix(self):
        with pytest.raises(DataError):
            generate(SynthSpec(n=20, tau=8, link_split=4))

    def test_split_bounds(self):
        with pytest.raises(DataError):
            generate(SynthSpec(n=10, tau=8, link_split=1, link_matrix=((1.0,),)))

    def test_zero_late_factors_is_config_error(self):
        with pytest.raises(ConfigError, match="num_late_factors"):
            SynthSpec(n=20, tau=8, link_split=5, num_late_factors=0,
                      link_matrix=((), ()), link_noise_sd=())
        # without a split the late factor count is unused
        SynthSpec(n=20, tau=8, num_late_factors=0)


class TestValidation:
    def test_score_ar_length(self):
        with pytest.raises(DataError):
            generate(SynthSpec(n=10, tau=8, num_factors=2, score_ar=(0.5,)))
