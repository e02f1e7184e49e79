"""Equation-to-group matching and alternating-path reachability.

The matching assigns each equation an adjacent variable group of highest
shift, injectively, extending along augmenting paths in the classic
structural-analysis fashion: first look for a free admissible group, then
try to re-route an already matched neighbour.  Equations for which no
augmenting path exists are *exposed*; the set of equations an exposed node
can reach by alternating paths (non-matching edge first, then a matching
edge, and so on) is what every downstream step operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotExposed
from .graphs import ShiftingGraph, VariableGroup, highest_shift_groups


@dataclass(frozen=True)
class Matching:
    """Injective map from equation ids to variable groups.

    `inverse` maps each matched group back to its equation.  It is built
    once, so `pairs` must not be changed after construction.
    """

    pairs: dict[int, VariableGroup] = field(default_factory=dict)
    inverse: dict[VariableGroup, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inverse", {v: i for i, v in self.pairs.items()})

    def group_of(self, i: int) -> VariableGroup | None:
        return self.pairs.get(i)

    def is_matched(self, i: int) -> bool:
        return i in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ReachReport:
    """Alternating-path reachability from one exposed equation."""

    exposed: int
    reached_eqs: frozenset[int]
    reached_groups: frozenset[VariableGroup]


def _try_augment(
    g: ShiftingGraph,
    eq2group: dict[int, VariableGroup],
    group2eq: dict[VariableGroup, int],
    i: int,
    matchable: frozenset[VariableGroup],
    visited_eqs: set[int],
    visited_groups: set[VariableGroup],
) -> bool:
    """Depth-first augmenting search from equation i; mutates the dicts on success.

    Each equation on the path first looks for a free admissible group,
    which ends the path, and otherwise re-routes through its matched
    groups in order.  The path is kept on explicit stacks, so its length is
    not bounded by the interpreter's recursion limit.
    """
    path = [i]  # equations on the current alternating path
    via: list[VariableGroup] = []  # via[d]: the group path[d] would take over
    pos = [0]  # pos[d]: next position in path[d]'s groups to re-route through
    while path:
        x = path[-1]
        groups = g.groups_of(x)
        if pos[-1] == 0:
            # first pass: a free admissible group ends the path
            for v in groups:
                if v not in group2eq and v in matchable:
                    eq2group[x] = v
                    group2eq[v] = x
                    # re-route the path, innermost equation first
                    for x, v in reversed(list(zip(path, via))):
                        eq2group[x] = v
                        group2eq[v] = x
                    return True
        # second pass: re-route through the next matched group
        p = pos[-1]
        while p < len(groups) and (groups[p] in visited_groups or groups[p] not in group2eq):
            p += 1
        if p == len(groups):
            path.pop()
            pos.pop()
            if via:
                via.pop()
            continue
        pos[-1] = p + 1
        v = groups[p]
        visited_groups.add(v)
        k = group2eq[v]
        visited_eqs.add(k)
        path.append(k)
        via.append(v)
        pos.append(0)
    return False


def compute_matching(g: ShiftingGraph) -> tuple[Matching, list[ReachReport]]:
    """Match equations to highest-shift groups, in ascending equation order.

    Failure to augment is permanent, so each equation is tried once.  The
    reports for the exposed equations are computed against the final
    matching, one per exposed node in ascending order.
    """
    matchable = highest_shift_groups(g)
    eq2group: dict[int, VariableGroup] = {}
    group2eq: dict[VariableGroup, int] = {}
    exposed: list[int] = []
    for i in g.eq_nodes:
        if not _try_augment(g, eq2group, group2eq, i, matchable, set(), set()):
            exposed.append(i)
    m = Matching(eq2group)
    reports = [alternating_reach(g, m, j) for j in exposed]
    return m, reports


def alternating_reach(g: ShiftingGraph, m: Matching, j: int) -> ReachReport:
    """All equations reachable from the unmatched equation j by alternating paths.

    Each path leaves an equation through a non-matching edge and continues
    through the matching edge of the group it lands on; unmatched groups are
    dead ends and are not reported.
    """
    if not g.has_equation(j):
        raise NotExposed(f"equation {j} is not in the graph")
    if m.is_matched(j):
        raise NotExposed(f"equation {j} is matched to {m.group_of(j)}")
    group2eq = m.inverse
    reached_eqs: set[int] = set()
    reached_groups: set[VariableGroup] = set()
    stack = [j]
    seen_eqs = {j}
    while stack:
        i = stack.pop()
        for v in g.groups_of(i):
            if v in reached_groups:
                continue
            k = group2eq.get(v)
            if k is None:
                continue
            reached_groups.add(v)
            if k not in seen_eqs:
                seen_eqs.add(k)
                reached_eqs.add(k)
                stack.append(k)
    return ReachReport(j, frozenset(reached_eqs), frozenset(reached_groups))
