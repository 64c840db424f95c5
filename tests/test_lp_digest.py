"""Every ``solve`` output on ``tests/lp_digest.py``'s games stays byte for byte.

A change that skips or reorders LPs may move the digest's ``calls`` and
``lp``; its ``cli`` hash, over every exit code, stdout and stderr, must not
move. Nor may any LP kind's call count rise above its ceiling, so a change
that adds LPs of one kind fails by that kind's name, nor may the pivots or
the LPs that run phase 1 rise above theirs.
"""

import pytest

from lp_digest import digest

CLI_SHA256 = "a0b2a68cdbce8e36e32ed0ac94ffb48157741fff500134887409c0521c3792a0"

# calls per LP kind in the digest's line once the margin LPs started at their
# best pure leader strategy, which answers most prefilters without an LP,
# every node past depth one tried its prefilter's point before its own LP, and
# OLFE's full profiles took the dual bound before their primal profile LP, as
# PLFE's do: each losing leaf's primal became one dual, and the winner gained
# one dual, so _profile_lp rose from 1,126
CEILINGS = {
    "_attainment": 212,
    "_emptiness": 985,
    "_find_apx": 51,
    "_max_min": 383,
    "_profile_lp": 1201,
    "_strict_eps_lp": 552,
}

# simplex pivots, and LPs that run phase 1, over the digest's LPs; both fell
# (from 13,977 and 1,034) when OLFE's losing leaves traded a two-phase primal
# for a dual that starts feasible
PIVOTS = 13861
PHASE1 = 891


@pytest.fixture(scope="module")
def digested():
    return digest()


def test_solve_outputs_unchanged(digested):
    assert digested[3] == CLI_SHA256


@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_lp_calls_within_ceiling(digested, kind):
    assert digested[1][kind] <= CEILINGS[kind]


def test_no_lp_kind_without_ceiling(digested):
    assert set(digested[1]) <= set(CEILINGS)


def test_pivots_within_ceiling(digested):
    assert digested[4] <= PIVOTS


def test_phase1_within_ceiling(digested):
    assert digested[6] <= PHASE1
