"""Network schemas and meta-paths for heterogeneous information networks.

A *network schema* is the type-level blueprint of a HIN: the set of node
types and the typed relations between them (the tutorial's "author —writes→
paper —published-in→ venue" picture).  A *meta-path* is a walk in the schema
graph; meta-paths drive PathSim similarity, NetClus ranking, and
GNetMine-style classification.

Meta-paths can be written compactly as strings, e.g. ``"author-paper-venue"``
or, with relation disambiguation, ``"author-[writes]-paper"`` when two
relations share endpoints.  Type tokens may be abbreviated to any
unambiguous case-insensitive prefix — ``"A-P-V-P-A"`` reads as
``author-paper-venue-paper-author`` on the bibliographic schema — and a
bracketed relation may be prefixed with ``~`` to force the backward
traversal of a same-type relation (``"paper-[~cites]-paper"`` walks from
cited paper to citing paper).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.exceptions import (
    MetaPathError,
    RelationNotFoundError,
    SchemaError,
    TypeNotFoundError,
)

__all__ = ["Relation", "NetworkSchema", "MetaPath", "as_metapath"]


@dataclass(frozen=True)
class Relation:
    """A typed edge class ``source --name--> target``.

    Relations are stored once per direction of declaration; the schema
    treats them as traversable both ways (the reverse traversal uses the
    transposed relation matrix).
    """

    name: str
    source: str
    target: str

    def __post_init__(self):
        for field_name, value in (
            ("name", self.name),
            ("source", self.source),
            ("target", self.target),
        ):
            if not isinstance(value, str) or not value:
                raise SchemaError(f"Relation.{field_name} must be a non-empty string")

    @property
    def reversed(self) -> "Relation":
        """The same relation traversed backwards."""
        return Relation(name=self.name, source=self.target, target=self.source)

    def connects(self, a: str, b: str) -> bool:
        """True when this relation joins types *a* and *b* in either direction."""
        return (self.source, self.target) in ((a, b), (b, a))

    def __str__(self) -> str:
        return f"{self.source} --{self.name}--> {self.target}"


class NetworkSchema:
    """The type graph of a heterogeneous information network.

    Parameters
    ----------
    node_types:
        Iterable of distinct type names.
    relations:
        Iterable of :class:`Relation` (or ``(name, source, target)`` tuples).

    Example
    -------
    >>> schema = NetworkSchema(
    ...     ["author", "paper", "venue"],
    ...     [("writes", "author", "paper"), ("published_in", "paper", "venue")],
    ... )
    >>> schema.is_star_schema()
    True
    >>> schema.center_type()
    'paper'
    """

    def __init__(self, node_types: Iterable[str], relations: Iterable = ()):
        self._types: list[str] = []
        seen: set[str] = set()
        for t in node_types:
            if not isinstance(t, str) or not t:
                raise SchemaError(f"node type must be a non-empty string, got {t!r}")
            if t in seen:
                raise SchemaError(f"duplicate node type {t!r}")
            seen.add(t)
            self._types.append(t)
        self._relations: list[Relation] = []
        self._by_name: dict[str, Relation] = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                rel = Relation(*rel)
            self.add_relation(rel)

    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation) -> None:
        """Register *relation*; endpoints must be known types, names unique."""
        for endpoint in (relation.source, relation.target):
            if endpoint not in self._types:
                raise TypeNotFoundError(
                    f"relation {relation.name!r} references unknown type {endpoint!r}"
                )
        if relation.name in self._by_name:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        self._relations.append(relation)
        self._by_name[relation.name] = relation

    @property
    def node_types(self) -> list[str]:
        return list(self._types)

    @property
    def relations(self) -> list[Relation]:
        return list(self._relations)

    def resolve_type(self, token: str) -> str:
        """Resolve a (possibly abbreviated) node-type token.

        Resolution order: exact match, case-insensitive exact match, then
        unique case-insensitive prefix — so ``"A"`` reads as ``author`` and
        ``"V"`` as ``venue`` on the bibliographic schema.  An abbreviation
        matching several types raises :class:`MetaPathError` listing the
        candidates; a token matching nothing raises
        :class:`TypeNotFoundError` listing the known types.
        """
        if not isinstance(token, str) or not token:
            raise TypeNotFoundError(f"node type token must be a non-empty string, got {token!r}")
        if token in self._types:
            return token
        lowered = token.lower()
        matches = [t for t in self._types if t.lower() == lowered]
        if not matches:
            matches = [t for t in self._types if t.lower().startswith(lowered)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise MetaPathError(
                f"ambiguous type abbreviation {token!r}: matches {matches}; "
                f"spell the type out"
            )
        raise TypeNotFoundError(
            f"unknown node type {token!r} (known types: {self._types})"
        )

    def relation(self, name: str) -> Relation:
        """Relation by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise RelationNotFoundError(f"no relation named {name!r}") from None

    def relations_between(self, a: str, b: str) -> list[Relation]:
        """All relations joining types *a* and *b*, in either direction."""
        for t in (a, b):
            if t not in self._types:
                raise TypeNotFoundError(f"unknown node type {t!r}")
        return [r for r in self._relations if r.connects(a, b)]

    def neighbors_of_type(self, node_type: str) -> list[str]:
        """Types adjacent to *node_type* in the schema graph."""
        if node_type not in self._types:
            raise TypeNotFoundError(f"unknown node type {node_type!r}")
        out: list[str] = []
        for r in self._relations:
            if r.source == node_type and r.target not in out:
                out.append(r.target)
            if r.target == node_type and r.source not in out:
                out.append(r.source)
        return out

    # ------------------------------------------------------------------
    # Star schema support (NetClus)
    # ------------------------------------------------------------------
    def is_star_schema(self) -> bool:
        """True when one *center* type joins to every other type and the
        attribute types only join to the center.

        This is the shape NetClus requires (papers at the center of DBLP).
        A schema with a single type and no relations is not a star.
        """
        return self._find_center() is not None

    def center_type(self) -> str:
        """The center type of a star schema (:class:`SchemaError` otherwise)."""
        center = self._find_center()
        if center is None:
            raise SchemaError("schema is not a star schema")
        return center

    def attribute_types(self) -> list[str]:
        """All non-center types of a star schema."""
        center = self.center_type()
        return [t for t in self._types if t != center]

    def _find_center(self) -> str | None:
        if len(self._types) < 2 or not self._relations:
            return None
        for candidate in self._types:
            others = [t for t in self._types if t != candidate]
            # every relation must touch the candidate
            if any(
                candidate not in (r.source, r.target) for r in self._relations
            ):
                continue
            # every other type must connect to the candidate
            connected = {
                r.target if r.source == candidate else r.source
                for r in self._relations
            }
            if all(t in connected for t in others):
                return candidate
        return None

    # ------------------------------------------------------------------
    # Meta-path construction
    # ------------------------------------------------------------------
    def meta_path(self, spec) -> "MetaPath":
        """Build a :class:`MetaPath` from a compact *spec*.

        *spec* may be a :class:`MetaPath` (returned unchanged after
        re-validation), a sequence of type names, or a string such as
        ``"author-paper-venue"`` / ``"author-[writes]-paper"``.
        """
        if isinstance(spec, MetaPath):
            spec.validate(self)
            return spec
        if isinstance(spec, str):
            return MetaPath.parse(spec, self)
        return MetaPath.from_types(list(spec), self)

    def __repr__(self) -> str:
        return (
            f"NetworkSchema(types={self._types!r}, "
            f"relations={[r.name for r in self._relations]!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkSchema):
            return NotImplemented
        return self._types == other._types and self._relations == other._relations


# A path step: traverse `relation` from `source` side to `target` side.
@dataclass(frozen=True)
class _Step:
    relation: Relation
    forward: bool  # True when traversed source -> target

    @property
    def from_type(self) -> str:
        return self.relation.source if self.forward else self.relation.target

    @property
    def to_type(self) -> str:
        return self.relation.target if self.forward else self.relation.source


class MetaPath:
    """A typed walk through the schema graph, e.g. ``A-P-C-P-A``.

    A meta-path of length *l* visits ``l+1`` node types through *l*
    relation traversals.  :meth:`node_types` gives the visited types;
    :meth:`steps` gives the (relation, direction) pairs, which the HIN uses
    to pick and orient relation matrices when computing commuting matrices.
    """

    def __init__(self, steps: Sequence[_Step]):
        if not steps:
            raise MetaPathError("meta-path must contain at least one step")
        for a, b in zip(steps, steps[1:]):
            if a.to_type != b.from_type:
                raise MetaPathError(
                    f"meta-path steps do not chain: {a.to_type!r} != {b.from_type!r}"
                )
        self._steps = tuple(steps)
        # Immutable, so the cache key and its symmetry are worked out
        # once, not per query.
        self._key = tuple((s.relation.name, s.forward) for s in self._steps)
        self._symmetric = self._key == tuple((n, not f) for n, f in reversed(self._key))

    # ------------------------------------------------------------------
    @classmethod
    def from_types(cls, types: Sequence[str], schema: NetworkSchema) -> "MetaPath":
        """Build the meta-path visiting *types* in order.

        Each consecutive pair must be joined by exactly one relation in the
        schema; use the string syntax with ``[relation]`` brackets when a
        pair is ambiguous.
        """
        if len(types) < 2:
            raise MetaPathError(
                f"a meta-path needs at least two node types, got {list(types)!r}"
            )
        types = [schema.resolve_type(t) for t in types]
        steps: list[_Step] = []
        for a, b in zip(types, types[1:]):
            candidates = schema.relations_between(a, b)
            if not candidates:
                raise MetaPathError(f"no relation joins {a!r} and {b!r}")
            if len(candidates) > 1:
                names = [r.name for r in candidates]
                raise MetaPathError(
                    f"{len(candidates)} relations join {a!r} and {b!r} "
                    f"({names}); disambiguate with 'a-[relation]-b' syntax"
                )
            rel = candidates[0]
            steps.append(_Step(rel, forward=(rel.source == a)))
        return cls(steps)

    _TOKEN = re.compile(r"\[([^\]]+)\]|([^-\[\]]+)")

    @classmethod
    def parse(cls, text: str, schema: NetworkSchema) -> "MetaPath":
        """Parse ``"a-b-c"`` or ``"a-[rel]-b"`` into a meta-path.

        Bracketed tokens name relations; bare tokens name node types
        (abbreviations welcome, see :meth:`NetworkSchema.resolve_type`).
        A ``~`` prefix inside brackets forces the backward traversal of
        the relation — required to walk a same-type relation such as
        ``cites`` against its declared direction.
        """
        tokens = [
            ("rel", m.group(1)) if m.group(1) else ("type", m.group(2).strip())
            for m in cls._TOKEN.finditer(text)
            if (m.group(1) or m.group(2).strip())
        ]
        if not tokens or tokens[0][0] != "type" or tokens[-1][0] != "type":
            raise MetaPathError(f"meta-path {text!r} must start and end with a type")
        tokens = [
            (kind, schema.resolve_type(value) if kind == "type" else value)
            for kind, value in tokens
        ]
        steps: list[_Step] = []
        i = 0
        while i < len(tokens) - 1:
            kind, name = tokens[i]
            if kind != "type":
                raise MetaPathError(f"unexpected relation token position in {text!r}")
            nxt_kind, nxt_name = tokens[i + 1]
            if nxt_kind == "rel":
                if i + 2 >= len(tokens) or tokens[i + 2][0] != "type":
                    raise MetaPathError(
                        f"relation [{nxt_name}] in {text!r} must be followed by a type"
                    )
                inverse = nxt_name.startswith("~")
                rel = schema.relation(nxt_name[1:] if inverse else nxt_name)
                target = tokens[i + 2][1]
                if inverse:
                    if (name, target) != (rel.target, rel.source):
                        raise MetaPathError(
                            f"inverse relation [~{rel.name}] traverses "
                            f"{rel.target!r} -> {rel.source!r}, not "
                            f"{name!r} -> {target!r}"
                        )
                    steps.append(_Step(rel, forward=False))
                else:
                    if not rel.connects(name, target):
                        raise MetaPathError(
                            f"relation {rel.name!r} does not join {name!r} and {target!r}"
                        )
                    steps.append(_Step(rel, forward=(rel.source == name)))
                i += 2
            else:
                sub = MetaPath.from_types([name, nxt_name], schema)
                steps.extend(sub._steps)
                i += 1
        return cls(steps)

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of relation traversals."""
        return len(self._steps)

    def node_types(self) -> list[str]:
        """The ``length + 1`` node types visited, in order."""
        return [self._steps[0].from_type] + [s.to_type for s in self._steps]

    def steps(self) -> list[tuple[Relation, bool]]:
        """``(relation, forward)`` pairs, one per traversal."""
        return [(s.relation, s.forward) for s in self._steps]

    @property
    def source_type(self) -> str:
        return self._steps[0].from_type

    @property
    def target_type(self) -> str:
        return self._steps[-1].to_type

    def canonical_key(self) -> tuple[tuple[str, bool], ...]:
        """Hashable canonical form: one ``(relation name, forward)`` pair per step.

        Two specs that traverse the same relations in the same directions
        produce equal keys regardless of how they were written (string,
        type list, or explicit :class:`MetaPath`), so caches keyed on this
        value — the commuting-matrix cache of :mod:`repro.engine` — share
        materializations across spellings, and a prefix of a longer path
        keys the same entry as the shorter path itself.
        """
        return self._key

    def prefix(self, length: int) -> "MetaPath":
        """The sub-path consisting of the first *length* steps."""
        if not 1 <= length <= self.length:
            raise MetaPathError(
                f"prefix length must be in [1, {self.length}], got {length}"
            )
        return MetaPath(self._steps[:length])

    def is_symmetric(self) -> bool:
        """True when the path reads the same forwards and backwards.

        PathSim is only defined for symmetric meta-paths (e.g. ``APCPA``).
        """
        return self._symmetric

    def reversed(self) -> "MetaPath":
        """The meta-path traversed target-to-source."""
        return MetaPath(
            [_Step(s.relation, not s.forward) for s in reversed(self._steps)]
        )

    def concat(self, other: "MetaPath") -> "MetaPath":
        """This path followed by *other* (types must chain)."""
        if self.target_type != other.source_type:
            raise MetaPathError(
                f"cannot concatenate: {self.target_type!r} != {other.source_type!r}"
            )
        return MetaPath(list(self._steps) + list(other._steps))

    def validate(self, schema: NetworkSchema) -> None:
        """Re-check every step against *schema* (raises on mismatch)."""
        for rel, _ in self.steps():
            found = schema.relation(rel.name)
            if found != rel:
                raise MetaPathError(
                    f"relation {rel.name!r} differs between path and schema"
                )

    def to_string(self, schema: NetworkSchema | None = None) -> str:
        """Compact DSL string that parses back to this path.

        Brackets are emitted only where parsing would otherwise be
        ambiguous: a same-type relation traversed backwards always gets
        ``[~rel]``, and — when *schema* is supplied — a type pair joined
        by several relations gets ``[rel]``.  For ordinary paths this is
        just the dash-joined type names.
        """
        parts = [self.source_type]
        for s in self._steps:
            if s.relation.source == s.relation.target and not s.forward:
                parts.append(f"[~{s.relation.name}]")
            elif (
                schema is not None
                and len(schema.relations_between(s.from_type, s.to_type)) > 1
            ):
                parts.append(f"[{s.relation.name}]")
            parts.append(s.to_type)
        return "-".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MetaPath({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetaPath):
            return NotImplemented
        return self._steps == other._steps

    def __hash__(self) -> int:
        return hash(self._steps)

    def __len__(self) -> int:
        return self.length


def as_metapath(network, spec) -> MetaPath:
    """Coerce *spec* (DSL string, type sequence, or :class:`MetaPath`) to a
    validated :class:`MetaPath` against *network*'s schema.

    *network* may be a :class:`NetworkSchema`, a
    :class:`~repro.networks.hin.HIN` (resolved through its shared engine,
    whose parse/validation memos make per-query coercion free), or a
    :class:`~repro.engine.MetaPathEngine`.  This is the single coercion
    point the library uses wherever "a meta-path" is accepted, so every
    entry point takes every spelling.
    """
    if isinstance(network, NetworkSchema):
        return network.meta_path(spec)
    engine_of = getattr(network, "engine", None)
    if callable(engine_of):  # a HIN: route through the shared engine's memos
        return network.engine().path(spec)
    path_of = getattr(network, "path", None)
    if callable(path_of):  # a MetaPathEngine (or anything engine-shaped)
        return network.path(spec)
    raise TypeError(
        f"cannot resolve meta-paths against {type(network).__name__!r}; "
        f"expected a HIN, NetworkSchema, or MetaPathEngine"
    )
