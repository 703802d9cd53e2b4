"""Ground-truth sidecar: which flip-flops of a generated design hold each
instance's Keccak state and hash input, as the generator built them; and
the record of a localization, what an analysis claims of the same
flip-flops.

The sidecar is never embedded in the blind netlist. ``generator`` writes
it; ``analyze --sidecar`` reads it to grade a localization, and so needs
this module without the generator itself. ``RepqcResult`` and
``KeccakNotPresentError`` are ``locate``'s result and failure, kept here
so that ``inject --result``, which reads a result back from its report,
loads no analysis module.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace


def id_list(value):
    """An id list read from a JSON record, checked: anything but a list of
    strings raises ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"not a list of ids: {value!r:.60}")
    return value


@dataclass
class InstanceTruth:
    state_ffs: list[str]      # share-major; within a share (x + 5y)*w + z
    input_ffs: list[str]      # bit z at index z


@dataclass
class GroundTruth:
    """Sidecar labeling, never embedded in the blind netlist: what the
    generator built, nothing an analysis derives. ``from_json`` ignores
    unknown keys, which older sidecars carry."""

    lane_width: int
    shares: int
    instances: list[InstanceTruth]
    decoy_ffs: list[str] = field(default_factory=list)
    control_ffs: list[str] = field(default_factory=list)

    def all_state_ffs(self):
        return [f for inst in self.instances for f in inst.state_ffs]

    def all_input_ffs(self):
        return [f for inst in self.instances for f in inst.input_ffs]

    def to_json(self):
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            lane_width=d["lane_width"],
            shares=d.get("shares", 1),
            instances=[InstanceTruth(id_list(i["state_ffs"]),
                                     id_list(i["input_ffs"]))
                       for i in d["instances"]],
            decoy_ffs=id_list(d.get("decoy_ffs", [])),
            control_ffs=id_list(d.get("control_ffs", [])),
        )

    def remap(self, rename):
        def ids(ffs):
            return [rename[f] for f in ffs]
        instances = [InstanceTruth(ids(i.state_ffs), ids(i.input_ffs))
                     for i in self.instances]
        return replace(self, instances=instances, decoy_ffs=ids(self.decoy_ffs),
                       control_ffs=ids(self.control_ffs))


class KeccakNotPresentError(Exception):
    """Raised when no bound window can produce the expected candidate count."""


@dataclass
class RepqcResult:
    """A localization: the state candidates, the located input register
    (empty when none was found) with its group id, the variant that found
    it, the state size it expected and the bounds of the search.
    ``SearchBounds`` and ``Analysis`` are ``locate``'s, named here only
    in annotations, which are never evaluated, so that this module
    imports no analysis."""
    state_candidates: frozenset[str]
    input_candidates: list[str]
    winning_group: str | None
    variant: str                      # "grouped" | "individual"
    # set by run_pipeline, which alone knows the instances and shares;
    # None from a localizer
    expected_state_count: int | None = None
    bounds: SearchBounds | None = None
    # set by run_pipeline; None for a result read back from a report or
    # remapped through a rename
    analysis: Analysis | None = field(default=None, compare=False,
                                      repr=False)

    def found(self):
        return bool(self.input_candidates)
