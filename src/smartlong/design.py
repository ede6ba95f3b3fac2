"""SMART randomization structures, embedded regimes, indicators, and weights.

The four supported two-stage designs differ only in which clusters receive a
second randomization:

* design I   - responders and non-responders are both re-randomized,
* design II  - only non-responders are re-randomized (prototypical),
* design III - only non-responders to the ``a1 = +1`` arm are re-randomized,
* design IV  - every cluster is re-randomized, response is not used.

A re-randomized ``(a1, r)`` cell writes its second-stage treatment to one
slot: ``a2r`` for design I responders, ``a2nr`` for every other cell, design
IV's included.  Every other slot is empty.  This module alone owns that
rule (``_CELLS`` and ``_second_stage_slot``): the embedded regimes, the
consistency indicators, the weights and the validation of an observed
pathway all read it from here.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple

__all__ = [
    "DesignKind",
    "SmartDesign",
    "EmbeddedCai",
    "enumerate_cais",
    "consistency_indicator",
    "design_weight",
]


class DesignKind(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


def _check_sign(value: int, name: str) -> None:
    # an integer of any kind, NumPy's too, but not a bool or a float
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (-1, 1):
        raise ValueError(f"{name} must be -1 or +1, got {value!r}")


@dataclass(frozen=True)
class EmbeddedCai:
    """An embedded clustered adaptive intervention.

    Slots that the design never exercises are ``None``: design II regimes
    carry no ``a2r``; design IV stores its unconditional second-stage
    treatment in the ``a2nr`` slot; the ``a1 = -1`` regime of design III has
    both second-stage slots empty.
    """

    a1: int
    a2r: Optional[int] = None
    a2nr: Optional[int] = None

    def __post_init__(self) -> None:
        _check_sign(self.a1, "a1")
        for name in ("a2r", "a2nr"):
            value = getattr(self, name)
            if value is not None:
                _check_sign(value, name)

    def __str__(self) -> str:
        def fmt(v: Optional[int]) -> str:
            return "." if v is None else f"{v:+d}"

        if self.a2r is None:
            return f"({self.a1:+d},{fmt(self.a2nr)})"
        return f"({self.a1:+d},{fmt(self.a2r)},{fmt(self.a2nr)})"


# second-stage randomization cells (a1, r) per design kind
_CELLS = {
    DesignKind.I: ((1, 0), (1, 1), (-1, 0), (-1, 1)),
    DesignKind.II: ((1, 0), (-1, 0)),
    DesignKind.III: ((1, 0),),
    DesignKind.IV: ((1, 0), (1, 1), (-1, 0), (-1, 1)),
}


@dataclass(frozen=True)
class SmartDesign:
    """Randomization structure of a two-stage clustered SMART.

    ``p_a2_given`` maps each second-stage randomization cell ``(a1, r)`` to
    the probability of assigning ``+1`` there.  Cells without a second
    randomization must be absent.  Design IV ignores response, so both
    ``r`` cells of an arm must carry the same probability.
    """

    kind: DesignKind
    p_a1: float = 0.5
    p_a2_given: Mapping[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.p_a1 < 1.0:
            raise ValueError(f"p_a1 must lie in (0, 1), got {self.p_a1}")
        cells = set(_CELLS[self.kind])
        given = dict(self.p_a2_given)
        extra = set(given) - cells
        if extra:
            raise ValueError(
                f"design {self.kind.value} has no second randomization for cells {sorted(extra)}"
            )
        missing = cells - set(given)
        if missing:
            raise ValueError(
                f"design {self.kind.value} requires second-stage probabilities for cells {sorted(missing)}"
            )
        for cell, p in given.items():
            if not 0.0 < p < 1.0:
                raise ValueError(f"p_a2_given[{cell}] must lie in (0, 1), got {p}")
        if self.kind is DesignKind.IV:
            for a1 in (1, -1):
                if given[(a1, 0)] != given[(a1, 1)]:
                    raise ValueError(
                        "design IV ignores response: p_a2_given must not depend on r"
                    )
        object.__setattr__(self, "p_a2_given", dict(given))

    @classmethod
    def balanced(cls, kind: DesignKind) -> "SmartDesign":
        """All randomizations 0.5/0.5."""
        return cls(kind=kind, p_a1=0.5, p_a2_given={c: 0.5 for c in _CELLS[kind]})

    def rerandomizes(self, a1: int, r: int) -> bool:
        return (a1, r) in self.p_a2_given

    def p_second_stage(self, a1: int, r: int, a2: int) -> float:
        """Probability of the observed second-stage assignment in its cell."""
        p_plus = self.p_a2_given[(a1, r)]
        return p_plus if a2 == 1 else 1.0 - p_plus

    def p_first_stage(self, a1: int) -> float:
        return self.p_a1 if a1 == 1 else 1.0 - self.p_a1


def _second_stage_slot(kind: DesignKind, a1: int, r: int) -> Optional[str]:
    """The slot holding the second-stage treatment of cell ``(a1, r)``:
    None where ``kind`` does not re-randomize the cell."""
    if (a1, r) not in _CELLS[kind]:
        return None
    return "a2r" if kind is DesignKind.I and r == 1 else "a2nr"


def _sort_key(cai: EmbeddedCai) -> Tuple[int, int, int]:
    # lexicographic with +1 before -1; empty slots order last
    rank = {1: 0, -1: 1, None: 2}
    return (rank[cai.a1], rank[cai.a2r], rank[cai.a2nr])


def _embedded(kind: DesignKind) -> Tuple[EmbeddedCai, ...]:
    # per a1, one regime per sign combination over the slots its cells use
    cais = []
    for a1 in (1, -1):
        slots = sorted({_second_stage_slot(kind, a1, r) for r in (0, 1)} - {None})
        signs = itertools.product((1, -1), repeat=len(slots))
        cais += [EmbeddedCai(a1, **dict(zip(slots, values))) for values in signs]
    return tuple(sorted(cais, key=_sort_key))


# the regimes depend on the design kind alone: built once, at import
_CAIS = {kind: _embedded(kind) for kind in DesignKind}


def enumerate_cais(design: SmartDesign) -> list[EmbeddedCai]:
    """Complete set of embedded regimes, in canonical order (a new list)."""
    return list(_CAIS[design.kind])


def consistency_indicator(cluster, d: EmbeddedCai, design: SmartDesign) -> int:
    """1 iff the cluster's observed pathway could have arisen under ``d``:
    the first-stage treatments agree and, where the cluster's cell is
    re-randomized, so does the treatment in that cell's slot."""
    if cluster.a1 != d.a1:
        return 0
    slot = _second_stage_slot(design.kind, cluster.a1, cluster.r)
    return 1 if slot is None else int(getattr(cluster, slot) == getattr(d, slot))


def design_weight(cluster, design: SmartDesign) -> float:
    """Inverse joint randomization probability of the observed pathway.

    The second stage contributes the probability of the treatment in the
    slot of the cluster's cell; a cell that is not re-randomized contributes
    a factor 1.
    """
    p = design.p_first_stage(cluster.a1)
    slot = _second_stage_slot(design.kind, cluster.a1, cluster.r)
    if slot is not None:
        p *= design.p_second_stage(cluster.a1, cluster.r, getattr(cluster, slot))
    return 1.0 / p
