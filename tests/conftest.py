"""Fixtures shared by the claims and CLI tests."""

import pytest

import circleprimes.claims as claims
from circleprimes.claims import ClaimId, Verdict


@pytest.fixture
def break_gb33_35(monkeypatch) -> None:
    """Make the GB33_35 kernel report a made-up witness for r = 1, not
    applicable for r = 2, and degenerate for r = 3 when n1 < 20; no true
    identity fails, so only this reaches the sweep's failure path."""
    row = claims._REGISTRY[ClaimId.GB33_35]

    def kernel(k, n1, n2, r):
        if r == 1:
            return f"{k}**{n1 - 1} - 1 = 7 (mod {n1 * n2})"
        if r == 2:
            return Verdict.NOT_APPLICABLE
        return Verdict.DEGENERATE if n1 < 20 else row.kernel(k, n1, n2, r)

    monkeypatch.setitem(claims._REGISTRY, ClaimId.GB33_35, row._replace(kernel=kernel))
