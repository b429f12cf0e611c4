from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebae.ranking import (
    PreferenceProfile,
    borda_rank,
    profile_from_measures,
)

# Worked five-candidate, four-voter example with a known outcome.
EXAMPLE = PreferenceProfile(
    candidates=("a", "b", "c", "d", "g"),
    voters=(
        ("e1", ("b", "a", "d", "c", "g")),
        ("e2", ("a", "d", "b", "c", "g")),
        ("e3", ("b", "d", "a", "g", "c")),
        ("e4", ("a", "d", "g", "b", "c")),
    ),
)


def test_majority_margins_example_entries():
    mm = majority_margins_loop(EXAMPLE)
    idx = {c: i for i, c in enumerate(EXAMPLE.candidates)}
    assert mm[idx["a"], idx["c"]] == 4
    assert mm[idx["a"], idx["d"]] == 2
    assert mm[idx["a"], idx["b"]] == 0
    assert mm[idx["b"], idx["c"]] == 4
    assert mm[idx["d"], idx["g"]] == 4
    assert mm[idx["c"], idx["g"]] == 0


def test_borda_example_scores_and_ranking():
    outcome = borda_rank(EXAMPLE)
    assert outcome.scores == {"a": 10, "b": 6, "c": -12, "d": 6, "g": -10}
    assert outcome.groups == (("a",), ("b", "d"), ("g",), ("c",))
    assert outcome.ranks == {"a": 1, "b": 2, "d": 2, "g": 4, "c": 5}


def test_single_voter_margins_in_unit_steps():
    profile = PreferenceProfile(candidates=("x", "y", "z"), voters=(("v", ("y", "x", "z")),))
    mm = majority_margins_loop(profile)
    off_diagonal = mm[~np.eye(3, dtype=bool)]
    assert set(off_diagonal) <= {-1, 1}


def test_reversed_voters_cancel():
    profile = PreferenceProfile(
        candidates=("x", "y", "z"),
        voters=(("v1", ("x", "y", "z")), ("v2", ("z", "y", "x"))),
    )
    assert np.all(majority_margins_loop(profile) == 0)


def test_unanimous_order_is_reproduced():
    order = ("m3", "m1", "m4", "m2")
    profile = PreferenceProfile(
        candidates=tuple(sorted(order)), voters=(("v1", order), ("v2", order), ("v3", order))
    )
    outcome = borda_rank(profile)
    assert outcome.groups == tuple((c,) for c in order)


def test_malformed_voter_rejected():
    with pytest.raises(ValueError):
        PreferenceProfile(candidates=("a", "b"), voters=(("v", ("a", "a")),))


def voter_ranks(profile):
    """candidate -> list of 1-based ranks, one per voter."""
    ranks = {c: [] for c in profile.candidates}
    for _, order in profile.voters:
        for position, candidate in enumerate(order, start=1):
            ranks[candidate].append(position)
    return ranks


def rank_stability_xi(ranks):
    """Mean absolute pairwise difference among each candidate's ranks: the
    oracle of ``borda_rank``'s ``xi``."""
    out = {}
    for candidate, rs in ranks.items():
        if len(rs) < 2:
            raise ValueError("rank stability needs at least 2 voters")
        diffs = [abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1:]]
        out[candidate] = float(np.mean(diffs))
    return out


def groups_and_ranks_loop(scores):
    """Score-tied groups (best first, members by id) and competition ranks
    built group by group: the oracle of ``borda_rank``'s ``groups`` and ``ranks``."""
    by_score = {}
    for candidate, score in scores.items():
        by_score.setdefault(score, []).append(candidate)
    groups = tuple(
        tuple(sorted(by_score[s], key=str)) for s in sorted(by_score, reverse=True)
    )
    ranks = {}
    position = 1
    for group in groups:
        for candidate in group:
            ranks[candidate] = position
        position += len(group)
    return groups, ranks


def xi_of(orders):
    """borda_rank's xi over candidates m, x, y for the given voter orders."""
    voters = tuple((f"v{i}", order) for i, order in enumerate(orders))
    return borda_rank(PreferenceProfile(candidates=("m", "x", "y"), voters=voters)).xi


def test_xi_examples():
    assert xi_of([("x", "y", "m")] * 4)["m"] == 0.0                          # ranks 3, 3, 3, 3
    assert xi_of([("m", "x", "y"), ("x", "y", "m")])["m"] == 2.0             # ranks 1, 3
    assert xi_of([("m", "x", "y"), ("x", "m", "y"), ("x", "y", "m")])["m"] == pytest.approx(4.0 / 3.0)


def test_xi_needs_two_voters():
    assert xi_of([("m", "x", "y")]) == {}


def test_borda_rank_rejects_empty_profiles():
    with pytest.raises(ValueError, match="at least 2 candidates"):
        borda_rank(PreferenceProfile(candidates=("a",), voters=(("v", ("a",)),)))
    with pytest.raises(ValueError, match="at least 1 voter"):
        borda_rank(PreferenceProfile(candidates=("a", "b"), voters=()))


def test_profile_from_measures_orders_ascending():
    profile = profile_from_measures(
        {"MAE": {"x": 3.0, "y": 1.0, "z": 2.0}, "LSD": {"x": 0.1, "y": 0.2, "z": 0.2}}
    )
    voters = dict(profile.voters)
    assert voters["MAE"] == ("y", "z", "x")
    assert voters["LSD"] == ("x", "y", "z")   # tie y/z broken by id


def majority_margins_loop(profile):
    """MM[x][y] = #voters ranking x above y minus #voters ranking y above x,
    counted pair by pair: the oracle of ``borda_rank``'s scores."""
    index = {c: i for i, c in enumerate(profile.candidates)}
    n = len(profile.candidates)
    margins = np.zeros((n, n), dtype=int)
    for _, order in profile.voters:
        pos = {c: p for p, c in enumerate(order)}
        for x in profile.candidates:
            for y in profile.candidates:
                if x != y and pos[x] < pos[y]:
                    margins[index[x], index[y]] += 1
                    margins[index[y], index[x]] -= 1
    return margins


candidates_strategy = st.integers(min_value=2, max_value=7)


@settings(max_examples=150, deadline=None)
@given(candidates_strategy, st.integers(min_value=1, max_value=6), st.randoms())
def test_margin_antisymmetry_and_zero_score_sum(n_candidates, n_voters, pyrandom):
    names = tuple(f"c{i}" for i in range(n_candidates))
    voters = []
    for v in range(n_voters):
        order = list(names)
        pyrandom.shuffle(order)
        voters.append((f"v{v}", tuple(order)))
    profile = PreferenceProfile(candidates=names, voters=tuple(voters))
    mm = majority_margins_loop(profile)
    assert np.all(mm == -mm.T)
    outcome = borda_rank(profile)
    assert sum(outcome.scores.values()) == 0


@settings(max_examples=100, deadline=None)
@given(candidates_strategy, st.integers(min_value=2, max_value=5), st.randoms())
def test_relabeling_invariance(n_candidates, n_voters, pyrandom):
    names = tuple(f"c{i}" for i in range(n_candidates))
    voters = []
    for v in range(n_voters):
        order = list(names)
        pyrandom.shuffle(order)
        voters.append((f"v{v}", tuple(order)))
    profile = PreferenceProfile(candidates=names, voters=tuple(voters))
    shuffled_voters = list(voters)
    pyrandom.shuffle(shuffled_voters)
    relabeled = PreferenceProfile(candidates=names, voters=tuple(shuffled_voters))
    assert borda_rank(profile).scores == borda_rank(relabeled).scores


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=2, max_value=5), st.randoms())
def test_pairwise_dominance(n_candidates, n_voters, pyrandom):
    # x placed first by every voter, y last: score(x) must exceed score(y)
    names = tuple(f"c{i}" for i in range(n_candidates))
    middle = list(names[2:])
    voters = []
    for v in range(n_voters):
        pyrandom.shuffle(middle)
        voters.append((f"v{v}", (names[0], *middle, names[1])))
    outcome = borda_rank(PreferenceProfile(candidates=names, voters=tuple(voters)))
    assert outcome.scores[names[0]] > outcome.scores[names[1]]


def test_voter_ranks_positions():
    ranks = voter_ranks(EXAMPLE)
    assert ranks["a"] == [2, 1, 3, 1]
    assert ranks["c"] == [4, 4, 5, 5]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6), st.randoms())
@example(2, 1, Random(0))
@example(40, 6, Random(1))
def test_borda_rank_matches_margins_and_loop_oracles(n_candidates, n_voters, pyrandom):
    names = [f"c{i}" for i in range(n_candidates)]
    pyrandom.shuffle(names)
    voters = []
    for v in range(n_voters):
        order = list(names)
        pyrandom.shuffle(order)
        voters.append((f"v{v}", tuple(order)))
    profile = PreferenceProfile(candidates=tuple(names), voters=tuple(voters))
    outcome = borda_rank(profile)
    row_sums = majority_margins_loop(profile).sum(axis=1)
    assert outcome.scores == {c: int(s) for c, s in zip(profile.candidates, row_sums)}
    assert all(type(s) is int for s in outcome.scores.values())
    assert (outcome.groups, outcome.ranks) == groups_and_ranks_loop(outcome.scores)
    assert all(type(r) is int for r in outcome.ranks.values())
    if n_voters == 1:
        assert outcome.xi == {}
    else:
        assert outcome.xi == rank_stability_xi(voter_ranks(profile))
        assert all(type(x) is float for x in outcome.xi.values())
