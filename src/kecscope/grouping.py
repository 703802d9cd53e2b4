"""Register inference by sequential levelization.

Each flip-flop gets an input level (clock cycles for a primary input to
reach it, shortest path) and an output level (cycles for it to reach a
primary output). Flip-flops sharing a finite (input_level, output_level)
pair form one group, the inferred word-level register. Flip-flops with an
unreachable side are collected in a single residual group which the
candidate scan downstream never considers.

Levels are shortest-path on purpose: earliest arrival is well defined even
through feedback loops, where longest path is not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .depgraph import DependencyGraph

UNREACHABLE = None

RESIDUAL_GROUP = "g_residual"


@dataclass
class LevelTable:
    input_level: dict[str, int | None]
    output_level: dict[str, int | None]


@dataclass
class Group:
    gid: str
    key: tuple[int, int] | None      # None for the residual group
    members: list[str]               # sorted by id


@dataclass
class GroupTable:
    groups: list[Group]              # sorted by key, residual last

    def regular(self):
        return [g for g in self.groups if g.key is not None]


def _bfs_levels(seeds, edges):
    level = {f: 1 for f in seeds}
    frontier = deque(seeds)
    while frontier:
        f = frontier.popleft()
        for g in edges.get(f, ()):
            if g not in level:
                level[g] = level[f] + 1
                frontier.append(g)
    return level


def compute_levels(graph: DependencyGraph) -> LevelTable:
    """Two multi-source BFS passes over the flip-flop graph."""
    in_seeds = [f for f in graph.ffs if graph.input_reach[f]]
    out_seeds = [f for f in graph.ffs if graph.output_reach[f]]
    fwd = _bfs_levels(in_seeds, graph.deps)
    bwd = _bfs_levels(out_seeds, graph.rdeps)
    return LevelTable(
        input_level={f: fwd.get(f, UNREACHABLE) for f in graph.ffs},
        output_level={f: bwd.get(f, UNREACHABLE) for f in graph.ffs},
    )


def group_by_levels(levels: LevelTable) -> GroupTable:
    """One group per distinct finite level pair, plus the residual group."""
    buckets: dict[tuple[int, int] | None, list[str]] = {}
    for f, il in levels.input_level.items():
        ol = levels.output_level[f]
        key = (il, ol) if il is not UNREACHABLE and ol is not UNREACHABLE else None
        buckets.setdefault(key, []).append(f)
    groups = []
    for key in sorted(k for k in buckets if k is not None):
        groups.append(Group(f"g_in{key[0]}_out{key[1]}", key, sorted(buckets[key])))
    if None in buckets:
        groups.append(Group(RESIDUAL_GROUP, None, sorted(buckets[None])))
    return GroupTable(groups)


def dump_groups(table: GroupTable) -> str:
    """CSV ``group,input_level,output_level,size,members...``"""
    lines = ["group,input_level,output_level,size,members"]
    for g in table.groups:
        il, ol = g.key if g.key is not None else ("-", "-")
        lines.append(f"{g.gid},{il},{ol},{len(g.members)},{' '.join(g.members)}")
    return "\n".join(lines) + "\n"
