"""Every ``solve`` output on ``tests/lp_digest.py``'s games stays byte for byte.

A change that skips or reorders LPs may move the digest's ``calls`` and
``lp``; its ``cli`` hash, over every exit code, stdout and stderr, must not
move. Nor may any LP kind's or solve mode's call count rise above its
ceiling, so a change that adds LPs of one kind or to one solver fails by
that name, nor may the pivots or the LPs that run phase 1 rise above theirs.
"""

import pytest

from lp_digest import digest

CLI_SHA256 = "a0b2a68cdbce8e36e32ed0ac94ffb48157741fff500134887409c0521c3792a0"

# calls per LP kind in the digest's line once apx searched each follower's
# subgame against the best subgame value so far: _max_min fell from 383 and
# _strict_eps_lp from 552, while _profile_lp rose from 1,201, since a subgame
# that cannot win now takes bound LPs where it used to take max-min LPs
CEILINGS = {
    "_attainment": 212,
    "_emptiness": 985,
    "_find_apx": 51,
    "_max_min": 270,
    "_profile_lp": 1207,
    "_strict_eps_lp": 532,
}

# calls per solve mode: apx fell from 562; each other mode fell by one, the
# bound LP of a prefix without rows in test_golden's tied-f1-4x3, now read
# without an LP
MODE_CEILINGS = {"apx": 438, "optimistic": 851, "pessimistic": 1038, "pure-olfe": 930}

# simplex pivots, and LPs that run phase 1, over the digest's LPs; both fell
# (from 13,861 and 891) with apx's max-min LPs
PIVOTS = 13156
PHASE1 = 778


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


@pytest.mark.parametrize("mode", sorted(MODE_CEILINGS))
def test_mode_lp_calls_within_ceiling(digested, mode):
    assert digested[7][mode] <= MODE_CEILINGS[mode]


def test_no_mode_without_ceiling(digested):
    assert set(digested[7]) <= set(MODE_CEILINGS)


def test_pivots_within_ceiling(digested):
    assert digested[4] <= PIVOTS


def test_phase1_within_ceiling(digested):
    assert digested[6] <= PHASE1
