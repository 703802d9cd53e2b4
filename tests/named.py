"""The one place where tests read the analysis by flip-flop name, or
build its inputs by name.

``extract_dependencies`` numbers the flip-flops, and every analysis table
is a list indexed by flip-flop id or holds ids. A test states its facts in
the names a netlist gives: :func:`graph` builds a dependency graph from
named edges, and :class:`Named` reads one graph, or the tables derived
from it, by name.
"""

from kecscope.depgraph import DependencyGraph
from kecscope.grouping import Group, GroupTable
from kecscope.scoring import ScoreTable


def graph(ffs, edges):
    """The dependency graph over ``ffs``, numbered in list order, with one
    edge per distinct (src, dst) pair of names in ``edges`` and no input
    or output reach. A stub may name a sink outside ``ffs``: it is
    numbered after them and counts toward its sources' fanout alone."""
    ffs = list(ffs)
    number = {f: i for i, f in enumerate(ffs)}
    deps = [set() for _ in ffs]
    rdeps = [set() for _ in ffs]
    for src, dst in edges:
        sink = number.setdefault(dst, len(number))
        deps[number[src]].add(sink)
        if sink < len(ffs):
            rdeps[sink].add(number[src])
    return DependencyGraph(ffs, [sorted(s) for s in deps],
                           [sorted(s) for s in rdeps],
                           [False] * len(ffs), [False] * len(ffs))


class Named:
    """One dependency graph, read and fed by flip-flop name."""

    def __init__(self, graph):
        self.graph = graph
        self.id = {f: i for i, f in enumerate(graph.ffs)}

    def fanin(self, f):
        return len(self.graph.rdeps[self.id[f]])

    def fanout(self, f):
        return len(self.graph.deps[self.id[f]])

    def of(self, values):
        """A list indexed by id, as a dict keyed by name."""
        assert len(values) == len(self.graph.ffs)
        return dict(zip(self.graph.ffs, values))

    def names(self, ids):
        """The names of a collection of ids, as a set."""
        return {self.graph.ffs[i] for i in ids}

    def ids(self, names):
        return {self.id[f] for f in names}

    def _relation(self, lists):
        return {f: self.names(ids) for f, ids in self.of(lists).items()}

    @property
    def deps(self):
        """src name -> set of sink names"""
        return self._relation(self.graph.deps)

    @property
    def rdeps(self):
        """sink name -> set of source names"""
        return self._relation(self.graph.rdeps)

    @property
    def input_reach(self):
        return self.of(self.graph.input_reach)

    @property
    def output_reach(self):
        return self.of(self.graph.output_reach)

    def scores(self, z):
        """The ScoreTable of a name -> z map over every flip-flop."""
        return ScoreTable([z[f] for f in self.graph.ffs])

    def groups(self, rows):
        """The GroupTable of (gid, key, member names) rows, members listed
        in name order as ``group_by_levels`` lists them."""
        return GroupTable([Group(gid, key, [self.id[f] for f in sorted(members)])
                           for gid, key, members in rows])

    def members(self, group):
        """The member names of one group, in its order."""
        return [self.graph.ffs[m] for m in group.members]
