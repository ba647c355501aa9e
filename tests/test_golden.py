"""Golden reports: seeded runs give the checked-in report files.

On the numeric stack recorded in ``tests/golden/stack.json`` a report must
match its file byte for byte. On any other stack the same bytes are not
promised (see the README's "Determinism"), so every non-float field must
still match exactly and every float to ``FLOAT_RTOL`` relative, except the
solver's rounding-level residual ``final_score_norm``. The test runs on
every stack; only the strictness changes.
"""

from __future__ import annotations

import json

import pytest

from golden.regenerate import CASES, GOLDEN, diff, numeric_stack, run_case, write_inputs

FLOAT_RTOL = 1e-12
# The solver's mean-gradient residual at convergence is rounding noise with
# no relative precision; its contract (at most the solver's tolerance) is
# checked in test_solver.py, so off the recorded stack it is not compared.
RESIDUALS = (".final_score_norm",)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def mismatch(expected: bytes, actual: bytes, exact: bool) -> str | None:
    """None when ``actual`` passes against ``expected``, else a message that
    names the first differing key and the largest relative float gap."""
    if expected == actual:
        return None
    gaps = list(diff(json.loads(expected), json.loads(actual)))
    bad = [(key, gap) for key, gap in gaps
           if exact or gap is None or (gap > FLOAT_RTOL and not key.endswith(RESIDUALS))]
    if exact and not gaps:
        return "no field differs, but the bytes do (number or whitespace formatting)"
    if not bad:
        return None
    largest = max((gap for _, gap in gaps if gap is not None), default=0.0)
    return (f"{len(bad)} fields differ; first {bad[0][0]}; "
            f"largest relative float gap {largest:.3e}")


@pytest.mark.parametrize("stem, argv", CASES, ids=[" ".join(argv) for _, argv in CASES])
def test_golden_report(stem, argv, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    actual = run_case(argv)
    expected = (GOLDEN / f"{stem}.json").read_bytes()
    recorded = json.loads((GOLDEN / "stack.json").read_text(encoding="utf-8"))
    problem = mismatch(expected, actual, exact=numeric_stack() == recorded)
    assert problem is None, f"{stem}.json: {problem}"


class TestMismatch:
    REPORT = {"beta_hat": [0.5, -1.25], "failed_replicates": 2, "config": {"data": "d.csv"}}

    def render(self, report) -> bytes:
        return json.dumps(report).encode()

    def test_float_gap_fails_exact_and_passes_within_tolerance(self):
        moved = json.loads(json.dumps(self.REPORT))
        moved["beta_hat"][1] *= 1.0 + 1e-13
        expected, actual = self.render(self.REPORT), self.render(moved)
        message = mismatch(expected, actual, exact=True)
        assert "first $.beta_hat[1]" in message
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(1e-13, rel=0.01)
        assert mismatch(expected, actual, exact=False) is None

    def test_float_gap_beyond_tolerance_fails(self):
        moved = json.loads(json.dumps(self.REPORT))
        moved["beta_hat"][0] *= 1.0 + 1e-10
        assert "first $.beta_hat[0]" in mismatch(self.render(self.REPORT),
                                                 self.render(moved), exact=False)

    @pytest.mark.parametrize("key, value", [("failed_replicates", 3),
                                            ("config", {"data": "e.csv"})])
    def test_non_float_change_always_fails(self, key, value):
        moved = {**self.REPORT, key: value}
        message = mismatch(self.render(self.REPORT), self.render(moved), exact=False)
        assert message is not None and f"first $.{key}" in message

    def test_residual_compared_only_on_the_recorded_stack(self):
        report = {"final_score_norm": 2.5e-14}
        moved = {"final_score_norm": 7.5e-15}
        expected, actual = self.render(report), self.render(moved)
        assert mismatch(expected, actual, exact=True) is not None
        assert mismatch(expected, actual, exact=False) is None

    def test_formatting_only_change_fails_exact(self):
        expected = self.render(self.REPORT)
        assert mismatch(expected, expected.replace(b" ", b"  "), exact=True) is not None
