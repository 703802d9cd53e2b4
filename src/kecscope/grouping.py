"""Register inference by sequential levelization.

Each flip-flop gets an input level (clock cycles for a primary input to
reach it, shortest path) and an output level (cycles for it to reach a
primary output). Flip-flops sharing a finite (input_level, output_level)
pair form one group, the inferred word-level register. Flip-flops with an
unreachable side are collected in a single residual group which the
candidate scan downstream never considers.

Levels are shortest-path on purpose: earliest arrival is well defined even
through feedback loops, where longest path is not.

Levels are lists indexed by flip-flop id, and group members are ids. The
members of a group are listed in name order, so the groups, their CSV and
every sum over members are those of a name-keyed grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DependencyGraph

UNREACHABLE = None

RESIDUAL_GROUP = "g_residual"


@dataclass
class LevelTable:
    input_level: list[int | None]    # flip-flop id -> level
    output_level: list[int | None]
    order: list[int]                 # the ids in name order


@dataclass
class Group:
    gid: str
    key: tuple[int, int] | None      # None for the residual group
    members: list[int]               # flip-flop ids, in name order


@dataclass
class GroupTable:
    groups: list[Group]              # sorted by key, residual last

    def regular(self):
        return [g for g in self.groups if g.key is not None]


def _bfs_levels(seeds, edges):
    """Multi-source BFS, one frontier per level; seeds are at level 1."""
    level: list[int | None] = [UNREACHABLE] * len(edges)
    for f in seeds:
        level[f] = 1
    frontier, depth = seeds, 1
    while frontier:
        depth += 1
        reached = []
        for f in frontier:
            for g in edges[f]:
                if level[g] is UNREACHABLE:
                    level[g] = depth
                    reached.append(g)
        frontier = reached
    return level


def compute_levels(graph: DependencyGraph) -> LevelTable:
    """Two multi-source BFS passes over the flip-flop graph."""
    in_seeds = [f for f, reach in enumerate(graph.input_reach) if reach]
    out_seeds = [f for f, reach in enumerate(graph.output_reach) if reach]
    return LevelTable(_bfs_levels(in_seeds, graph.deps),
                      _bfs_levels(out_seeds, graph.rdeps), graph.by_name)


def group_by_levels(levels: LevelTable) -> GroupTable:
    """One group per distinct finite level pair, plus the residual group."""
    buckets: dict[tuple[int, int] | None, list[int]] = {}
    input_level, output_level = levels.input_level, levels.output_level
    for f in levels.order:
        il, ol = input_level[f], output_level[f]
        key = (il, ol) if il is not UNREACHABLE and ol is not UNREACHABLE else None
        buckets.setdefault(key, []).append(f)
    groups = []
    for key in sorted(k for k in buckets if k is not None):
        groups.append(Group(f"g_in{key[0]}_out{key[1]}", key, buckets[key]))
    if None in buckets:
        groups.append(Group(RESIDUAL_GROUP, None, buckets[None]))
    return GroupTable(groups)


def dump_groups(table: GroupTable, graph: DependencyGraph) -> str:
    """CSV ``group,input_level,output_level,size,members...``"""
    ffs = graph.ffs
    lines = ["group,input_level,output_level,size,members"]
    for g in table.groups:
        il, ol = g.key if g.key is not None else ("-", "-")
        lines.append(f"{g.gid},{il},{ol},{len(g.members)},"
                     f"{' '.join([ffs[m] for m in g.members])}")
    return "\n".join(lines) + "\n"
