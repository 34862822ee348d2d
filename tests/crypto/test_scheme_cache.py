"""Verification-memo eviction: bounded memory without a latency cliff."""

import pytest

import repro.crypto.scheme as scheme_mod
from repro.crypto.hmac_scheme import HmacScheme


@pytest.fixture
def scheme():
    s = HmacScheme(secret=b"cache-test")
    s.keygen(1)
    return s


def fill(scheme, count, start=0):
    pairs = []
    for i in range(start, start + count):
        message = f"msg-{i}".encode()
        sig = scheme.sign(1, message)
        scheme.verify_cached(message, sig)
        pairs.append((message, sig))
    return pairs


def test_eviction_drops_oldest_half_not_everything(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 8)
    old = fill(scheme, 8)
    assert len(scheme._verify_cache) == 8
    # The 9th entry triggers eviction of the *oldest half* only - the
    # regression was a full clear(), which made the next quorum
    # certificate re-verify every signature at once.
    extra = fill(scheme, 1, start=8)
    assert len(scheme._verify_cache) == 5  # 4 survivors + the new entry
    for message, sig in old[:4]:
        assert scheme.cached_verification(message, sig) is None
    for message, sig in old[4:]:
        assert scheme.cached_verification(message, sig) is True
    assert scheme.cached_verification(*extra[0]) is True


def test_eviction_preserves_correctness(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 4)
    pairs = fill(scheme, 20)  # many evictions along the way
    for message, sig in pairs:
        assert scheme.verify_cached(message, sig)  # recomputed if evicted
    assert len(scheme._verify_cache) <= 4 + 1


def test_cache_never_exceeds_cap_plus_one(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 6)
    for i in range(50):
        message = f"bulk-{i}".encode()
        scheme.verify_cached(message, scheme.sign(1, message))
        assert len(scheme._verify_cache) <= 7


def test_prime_verification_respects_cap(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 4)
    pairs = []
    for i in range(10):
        message = f"primed-{i}".encode()
        pairs.append((message, scheme.sign(1, message)))
    scheme.prime_verification(pairs, [True] * len(pairs))
    assert len(scheme._verify_cache) <= 5
    # The most recent primed entries survived.
    assert scheme.cached_verification(*pairs[-1]) is True


def test_keygen_invalidates_memo(scheme):
    message = b"before-keygen"
    sig = scheme.sign(1, message)
    scheme.verify_cached(message, sig)
    assert scheme.cached_verification(message, sig) is True
    scheme.keygen(2)
    assert scheme.cached_verification(message, sig) is None

