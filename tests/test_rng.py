import numpy as np
import pytest

from pebble_logit import RandomStream, UsageError
from pebble_logit.cli import _parse_seed_opt
from pebble_logit.rng import ScratchStream


def test_derive_is_deterministic():
    a = RandomStream(42).derive("boot", 5)
    b = RandomStream(42).derive("boot", 5)
    assert np.array_equal(a.generator.random(100), b.generator.random(100))


def test_replay_after_partial_draws():
    s = RandomStream(42)
    child = s.derive("boot", 5)
    child.generator.random(17)  # consume some state
    fresh = RandomStream(42).derive("boot", 5)
    first = fresh.generator.random(17)
    again = RandomStream(42).derive("boot", 5).generator.random(17)
    assert np.array_equal(first, again)


def test_label_separation():
    s = RandomStream(7)
    a = s.derive("a", 0).generator.random(64)
    b = s.derive("b", 0).generator.random(64)
    assert not np.array_equal(a, b)


def test_sibling_streams_no_collisions():
    s = RandomStream(3)
    a = s.derive("boot", 5).generator.random(10_000)
    b = s.derive("boot", 6).generator.random(10_000)
    assert np.count_nonzero(a == b) == 0


def test_index_changes_stream():
    s = RandomStream(3)
    assert s.derive("x", 0).generator.random() != s.derive("x", 1).generator.random()


def test_nested_paths_differ():
    s = RandomStream(1)
    a = s.derive("experiment", 2).derive("boot", 3)
    b = s.derive("experiment", 3).derive("boot", 2)
    assert a.generator.random() != b.generator.random()


def test_uniform_range_and_moments():
    u = RandomStream(101).derive("mc", 0).generator.random(1_000_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) <= 0.002


def test_gaussian_moments():
    g = RandomStream(103).derive("mc", 0).generator.standard_normal(1_000_000)
    assert abs(g.var() - 1.0) <= 0.005
    assert abs(g.mean()) <= 0.005


def test_scratch_stream_matches_derive():
    parent = RandomStream(2024)
    scratch = ScratchStream()
    for idx in (0, 3, 7):
        gen = scratch.rekey(parent, "boot", idx)
        got = (gen.standard_gamma(0.5, 11), gen.standard_normal(5))
        ref_gen = parent.derive("boot", idx).generator
        ref = (ref_gen.standard_gamma(0.5, 11), ref_gen.standard_normal(5))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


# A seed's text is parsed by the CLI; RandomStream checks its range.
@pytest.mark.parametrize(
    "text,value",
    [("42", 42), ("0x2a", 42), ("0X2A", 42), ("  7 ", 7), ("0", 0), ("007", 7)],
)
def test_parse_seed(text, value):
    assert _parse_seed_opt(text) == value


def test_parse_seed_rejects_garbage():
    # Decimal digits or 0x-hex only: no other base prefix, sign or separator.
    for text in ["not-a-seed", "0b11", "0o17", "0x", "+7", "1_000", "-0"]:
        with pytest.raises(UsageError):  # a ValueError too
            _parse_seed_opt(text)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_seed_domain_edges_accepted(seed):
    assert RandomStream(seed).seed == seed


@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_outside_domain_rejected(seed):
    # Reduced modulo 2^64, these would replay the seeds 0 and 2^64 - 1.
    with pytest.raises(UsageError, match=r"\[0, 2\^64\)"):
        RandomStream(seed)
