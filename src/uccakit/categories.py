"""Category inventory for foundational-layer annotation.

The layer uses a closed set of single-letter base categories plus two
secondary categories (CMR for coordinated main relations, UNA for
unanalyzable units).  An edge carries a set of categories rather than a
single one, because one unit can fill several roles at once (for example
"mine" is both the state and a participant, written S+A).
"""

from __future__ import annotations

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


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError  # loaded only when raised

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError  # loaded only when raised

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_type(cls):
    """Rebuild `cls` as a frozen record with one slot per annotated field.

    Objects of one class are equal when their field tuples are, the hash
    is that tuple's, repr names each field, `__match_args__` holds the
    field names, and pickle and copy call the class with the field values.
    Setting or deleting any attribute raises `FrozenInstanceError`.  Methods
    that `cls` defines replace these; a generated `__init__` sets each slot
    through its member descriptor, half the time of `object.__setattr__`,
    with class attributes named like fields as defaults.  This module, which
    every other imports first, holds it so that it can build `CategorySet`.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names)
    sets = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    mine, theirs = ("".join(f"{who}.{n}," for n in names) for who in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    namespace = {f"_default_{n}": value for n, value in defaults.items()}
    exec(
        f"def __init__(self, {params}):\n{sets}"
        "def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n"
        f"def __reduce__(self):\n    return self.__class__, ({mine})\n",
        namespace,
    )
    # Methods that `cls` defines itself replace the generated ones.
    body = {m: namespace[m] for m in ("__init__", "__eq__", "__hash__", "__repr__", "__reduce__")}
    body.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    skip = (*names, "__dict__", "__weakref__")
    body.update((k, v) for k, v in cls.__dict__.items() if k not in skip)
    body.update(__slots__=names, __match_args__=names)
    new = type(cls)(cls.__name__, cls.__bases__, body)
    new.__qualname__ = cls.__qualname__
    # The generated `__init__` looks its slot setters up here when it runs.
    namespace.update((f"_set_{n}", new.__dict__[n].__set__) for n in names)
    return new


@value_type
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
        if isinstance(labels, str):
            raise InvalidCategory(f"CategorySet takes labels, not the string {labels!r}; "
                                  "use CategorySet.of or CategorySet.from_notation")
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
    `InvalidCategory` as the constructor does, for a bare string too; a
    failing list is never stored, so it fails the same way every time."""
    if isinstance(labels, str):
        raise InvalidCategory(f"canonical_set takes labels, not the string {labels!r}")
    key = tuple(labels)
    try:
        return _CANONICAL_SETS[key]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        categories = CategorySet(key)
        return _CANONICAL_SETS.setdefault(categories.labels, categories)
