"""The criterion-2 analysis script must describe the shipped baseline: its
information-SE column is the Normal coverage the coverage harness reports
on the same datasets."""

import pytest

from pebble_logit import run_coverage_study
from pebble_logit.simulation import Scenario

from criterion2_wald_variants import ALPHA, ROWS, DesignScenario, wald_coverages


@pytest.mark.parametrize("n, p, seed", [(n, p, seed) for n, p, _, seed in ROWS])
def test_information_column_is_the_harness_normal_coverage(n, p, seed):
    reps = 20
    study = run_coverage_study(Scenario(n=n, p=p, reps=reps, boot=100, alpha=ALPHA, seed=seed))
    cov, dropped = wald_coverages(DesignScenario(n=n, p=p, reps=reps, alpha=ALPHA, seed=seed))
    assert study.failed_experiments == 0 and dropped == 0
    assert cov["information"] == study.normal["beta_avg_middle"]
    # The datasets tell the variants apart, so the equality above pins the SE.
    assert cov["marginal"] != cov["information"]
