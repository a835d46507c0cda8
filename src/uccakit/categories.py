"""Category inventory for foundational-layer annotation.

The layer uses a closed set of single-letter base categories plus two
secondary categories (CMR for coordinated main relations, UNA for
unanalyzable units).  An edge carries a set of categories rather than a
single one, because one unit can fill several roles at once (for example
"mine" is both the state and a participant, written S+A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

BASE_LABELS = ("P", "S", "G", "A", "D", "T", "C", "E", "N", "Q", "R", "F", "H", "L")
SECONDARY_LABELS = ("CMR", "UNA")
ALL_LABELS = BASE_LABELS + SECONDARY_LABELS

# Display order used for canonical storage and rendering.  It follows the
# conventional way combined labels are written: main relations first
# ("S+A", "P+A", "CMR+P"), ground before participant ("G+A"), participant
# before adverbial ("A+D"), UNA always last.
_ORDER = {label: i for i, label in enumerate(("CMR",) + BASE_LABELS + ("UNA",))}

DESCRIPTIONS = {
    "P": "process (main relation of a dynamic scene)",
    "S": "state (main relation of a static scene)",
    "G": "ground (relates the scene to the speech event)",
    "A": "participant",
    "D": "adverbial",
    "T": "time",
    "C": "center of a non-scene unit",
    "E": "elaborator",
    "N": "connector",
    "Q": "quantifier",
    "R": "relator",
    "F": "function word",
    "H": "parallel scene",
    "L": "scene linker",
    "CMR": "coordinated main relation (secondary to P or S)",
    "UNA": "unanalyzable unit (secondary)",
}


class InvalidCategory(ValueError):
    """Raised for labels outside the inventory or ill-formed combinations."""


@dataclass(frozen=True)
class CategorySet:
    """An immutable, canonically ordered set of category labels.

    Construction enforces the combinations that are never meaningful no
    matter the context: the set must be non-empty, labels must come from
    the closed inventory, P and S are mutually exclusive on one edge, and
    UNA must accompany a primary category.  Context-dependent restrictions
    (such as CMR requiring P or S) are left to the validator so that
    ill-annotated graphs can still be represented and reported on.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        seen = []
        for label in labels:
            if label not in ALL_LABELS:
                raise InvalidCategory(f"unknown category label {label!r}")
            if label not in seen:
                seen.append(label)
        if not seen:
            raise InvalidCategory("a category set must contain at least one label")
        if "P" in seen and "S" in seen:
            raise InvalidCategory("P and S cannot appear on the same edge")
        if seen == ["UNA"]:
            raise InvalidCategory("UNA is secondary and needs a primary category")
        seen.sort(key=_ORDER.__getitem__)
        object.__setattr__(self, "labels", tuple(seen))

    @classmethod
    def of(cls, *labels: str) -> "CategorySet":
        return cls(labels)

    @classmethod
    def from_notation(cls, text: str) -> "CategorySet":
        """Parse a label written as abbreviations joined by '+'."""
        return cls(text.split("+"))

    def notation(self) -> str:
        """The canonical textual form, e.g. "S+A" or "CMR+P"."""
        return "+".join(self.labels)

    def base(self) -> frozenset[str]:
        """The base (non-secondary) members."""
        return frozenset(l for l in self.labels if l in BASE_LABELS)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return self.notation()


# The sets that readers build, shared by the whole process and keyed by
# their canonical label tuples: one entry per valid category set seen.
_CANONICAL_SETS: dict[tuple[str, ...], CategorySet] = {}


def canonical_set(labels: Iterable[str]) -> CategorySet:
    """The process's shared `CategorySet` of `labels`.  Raises
    `InvalidCategory` as the constructor does; a failing list is never
    stored, so it fails the same way every time."""
    key = tuple(labels)
    try:
        return _CANONICAL_SETS[key]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        categories = CategorySet(key)
        return _CANONICAL_SETS.setdefault(categories.labels, categories)
