"""Borda-count rank aggregation over a majority-margins matrix.

Voters are experimental conditions (here: error measures), candidates are
estimation methods. Each voter contributes a total order; the majority
margin MM[x][y] counts how often x precedes y minus how often y precedes x,
and a candidate's Borda score is its row sum. Equal scores are reported as
indifference groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RankingOutcome:
    candidates: tuple
    margins: np.ndarray            # antisymmetric majority-margins matrix
    scores: dict                   # candidate -> Borda score (row sum)
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


def majority_margins(profile):
    """MM[x][y] = #voters ranking x above y minus #voters ranking y above x,
    that is the sum over voters of sign(pos[y] - pos[x])."""
    if len(profile.candidates) < 2:
        raise ValueError("need at least 2 candidates")
    if not profile.voters:
        raise ValueError("need at least 1 voter")
    index = {c: i for i, c in enumerate(profile.candidates)}
    n = len(profile.candidates)
    # pos[v, i]: where voter v places candidate i
    pos = np.empty((len(profile.voters), n), dtype=int)
    for v, (_, order) in enumerate(profile.voters):
        pos[v, [index[c] for c in order]] = np.arange(n)
    return np.sign(pos[:, None, :] - pos[:, :, None]).sum(axis=0)


def voter_ranks(profile):
    """candidate -> list of 1-based ranks, one per voter."""
    ranks = {c: [] for c in profile.candidates}
    for _, order in profile.voters:
        for position, candidate in enumerate(order, start=1):
            ranks[candidate].append(position)
    return ranks


def rank_stability_xi(ranks):
    """Mean absolute pairwise difference among each candidate's ranks.

    A candidate ranked identically by every voter gets 0; larger values mean
    the candidate moves around across experimental conditions.
    """
    out = {}
    for candidate, rs in ranks.items():
        if len(rs) < 2:
            raise ValueError("rank stability needs at least 2 voters")
        diffs = [abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1:]]
        out[candidate] = float(np.mean(diffs))
    return out


def borda_rank(profile):
    """Aggregate a profile: margins, scores, indifference groups, ranks, stability."""
    margins = majority_margins(profile)
    scores = {c: int(margins[i].sum()) for i, c in enumerate(profile.candidates)}
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
    xi = rank_stability_xi(voter_ranks(profile)) if len(profile.voters) >= 2 else {}
    return RankingOutcome(
        candidates=profile.candidates,
        margins=margins,
        scores=scores,
        groups=groups,
        ranks=ranks,
        xi=xi,
    )
