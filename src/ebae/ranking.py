"""Borda-count rank aggregation over majority margins.

Voters are experimental conditions (here: error measures), candidates are
estimation methods. Each voter contributes a total order; the majority
margin MM[x][y] counts how often x precedes y minus how often y precedes x,
and a candidate's Borda score is its row sum, computed in closed form from
the voters' positions. Equal scores are reported as indifference groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np


@dataclass(frozen=True, slots=True)
class PreferenceProfile:
    candidates: tuple
    voters: tuple          # (voter name, ordered candidate tuple) pairs, best first

    def __post_init__(self):
        expected = set(self.candidates)
        if len(expected) != len(self.candidates):
            raise ValueError("duplicate candidates")
        for name, order in self.voters:
            if len(order) != len(self.candidates) or set(order) != expected:
                raise ValueError(f"voter {name!r} does not rank every candidate exactly once")


@dataclass(frozen=True, slots=True)
class RankingOutcome:
    candidates: tuple
    scores: dict                   # candidate -> Borda score (majority-margins row sum)
    groups: tuple                  # score-tied groups, best first; members sorted by id
    ranks: dict                    # candidate -> competition rank (ties share a rank)
    xi: dict                       # candidate -> mean absolute pairwise rank change


def profile_from_measures(measure_values, candidates=None):
    """Build a profile from measure tables where smaller values are better.

    ``measure_values`` maps voter name -> {candidate: value}. Ties within a
    measure are broken by candidate id so each voter is a total order.
    """
    voters = []
    for name, values in measure_values.items():
        order = tuple(sorted(values, key=lambda c: (values[c], str(c))))
        voters.append((name, order))
    cands = candidates or voters[0][1]
    return PreferenceProfile(candidates=tuple(sorted(cands, key=str)), voters=tuple(voters))


def _positions(profile):
    """pos[v, i]: the 0-based place voter v gives candidate i."""
    if len(profile.candidates) < 2:
        raise ValueError("need at least 2 candidates")
    if not profile.voters:
        raise ValueError("need at least 1 voter")
    index = {c: i for i, c in enumerate(profile.candidates)}
    pos = np.empty((len(profile.voters), len(profile.candidates)), dtype=int)
    for v, (_, order) in enumerate(profile.voters):
        pos[v, [index[c] for c in order]] = np.arange(len(order))
    return pos


def borda_rank(profile):
    """Aggregate a profile: scores, indifference groups, ranks, stability.

    A voter placing c at 0-based position p puts it above C-1-p candidates
    and below p, so c's margins row sums to V(C-1) - 2 * sum_v pos[v, c].
    """
    pos = _positions(profile)
    n_voters, n = pos.shape
    totals = n_voters * (n - 1) - 2 * pos.sum(axis=0)
    scores = {c: int(s) for c, s in zip(profile.candidates, totals)}
    best_first = sorted(profile.candidates, key=lambda c: (-scores[c], str(c)))
    groups = tuple(tuple(group) for _, group in groupby(best_first, key=scores.get))
    ranks = {c: 1 + int((totals > s).sum()) for c, s in scores.items()}
    xi = {}
    if n_voters >= 2:
        # Mean absolute rank change over voter pairs a < b: the candidate's
        # stability across experimental conditions (0 = ranked alike by all).
        a, b = np.triu_indices(n_voters, k=1)
        moves = np.abs(pos[a] - pos[b]).sum(axis=0)
        xi = {c: int(m) / len(a) for c, m in zip(profile.candidates, moves)}
    return RankingOutcome(
        candidates=profile.candidates,
        scores=scores,
        groups=groups,
        ranks=ranks,
        xi=xi,
    )
