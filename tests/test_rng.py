import numpy as np
import pytest

from pebble_logit import RandomStream
from pebble_logit.rng import ScratchStream, parse_seed


def test_derive_is_deterministic():
    a = RandomStream(42).derive("boot", 5)
    b = RandomStream(42).derive("boot", 5)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))


def test_replay_after_partial_draws():
    s = RandomStream(42)
    child = s.derive("boot", 5)
    child.uniforms(17)  # consume some state
    fresh = RandomStream(42).derive("boot", 5)
    first = fresh.uniforms(17)
    again = RandomStream(42).derive("boot", 5).uniforms(17)
    assert np.array_equal(first, again)


def test_label_separation():
    s = RandomStream(7)
    a = s.derive("a", 0).uniforms(64)
    b = s.derive("b", 0).uniforms(64)
    assert not np.array_equal(a, b)


def test_sibling_streams_no_collisions():
    s = RandomStream(3)
    a = s.derive("boot", 5).uniforms(10_000)
    b = s.derive("boot", 6).uniforms(10_000)
    assert np.count_nonzero(a == b) == 0


def test_index_changes_stream():
    s = RandomStream(3)
    assert s.derive("x", 0).next_uniform() != s.derive("x", 1).next_uniform()


def test_nested_paths_differ():
    s = RandomStream(1)
    a = s.derive("experiment", 2).derive("boot", 3)
    b = s.derive("experiment", 3).derive("boot", 2)
    assert a.next_uniform() != b.next_uniform()


def test_uniform_range_and_moments():
    u = RandomStream(101).derive("mc", 0).uniforms(1_000_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) <= 0.002


def test_gaussian_moments():
    g = RandomStream(103).derive("mc", 0).gaussians(1_000_000)
    assert abs(g.var() - 1.0) <= 0.005
    assert abs(g.mean()) <= 0.005


def test_scratch_stream_matches_derive():
    parent = RandomStream(2024)
    scratch = ScratchStream()
    for idx in (0, 3, 7):
        gen = scratch.rekey(parent, "boot", idx)
        got = (gen.standard_gamma(0.5, 11), gen.standard_normal(5))
        ref_stream = parent.derive("boot", idx)
        ref = (ref_stream.generator.standard_gamma(0.5, 11), ref_stream.gaussians(5))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize(
    "text,value",
    [("42", 42), ("0x2a", 42), ("0X2A", 42), ("  7 ", 7), ("0", 0)],
)
def test_parse_seed(text, value):
    assert parse_seed(text) == value


def test_parse_seed_rejects_garbage():
    with pytest.raises(ValueError):
        parse_seed("not-a-seed")
