"""Forward-chaining consequence relation over requirement ids.

Derivation is purely symbolic: an id is derived when it is a premise, or when
it is the consequent of a premise implication whose antecedents are all
derived. A premise conflict whose antecedents are all derived flags the
contradiction; deriving the contradiction never licenses deriving anything
else (no ex falso), which keeps the relation paraconsistent.

`fire` and `fired_conflicts` state these two rules on id sets.
`operationalization.ClosureIndex` runs the same rules on bitmasks, with
numeric discharge added, in `satisfied_mask` and `fired_mask`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set

from ._record import field, record
from .errors import UnresolvedReferenceError
from .model import Conflict, Implication, Requirement, RequirementsDatabase


@record(frozen=True)
class Closure:
    """Least fixpoint of the membership and implication rules."""

    derived: frozenset[str]
    bottom: bool
    # One deterministic derivation per derived id: the implication ids used.
    support: Mapping[str, frozenset[str]] = field(default_factory=dict)
    bottom_witness: frozenset[str] = frozenset()

    def __contains__(self, req_id: str) -> bool:
        return req_id in self.derived


def _resolve_premises(
    pi: Iterable[Requirement | str], db: RequirementsDatabase | None
) -> dict[str, Requirement]:
    premises: dict[str, Requirement] = {}
    for item in pi:
        if isinstance(item, Requirement):
            premises[item.id] = item
        elif db is not None and item in db:
            premises[item] = db[item]
        else:
            raise UnresolvedReferenceError(f"cannot resolve premise id {item!r}")
    universe = set(premises)
    if db is not None:
        universe |= set(db.requirements)
    for req in premises.values():
        missing = req.references() - universe
        if missing:
            raise UnresolvedReferenceError(
                f"{req.id!r} references unresolved ids {sorted(missing)}"
            )
    return premises


def fire(implications: Iterable[Requirement], derived: dict[str, str | None]) -> bool:
    """One forward-chaining pass: each implication, in the order given, whose
    consequent is not in `derived` and whose antecedents all are, adds its
    consequent, recorded with the implication's id. An id added early in the
    pass can fire a later implication of the same pass. Returns whether
    anything was added."""
    known = derived.keys()  # a live view: it grows with `derived`
    added = False
    for imp in implications:
        body = imp.body
        if body.consequent not in derived and body.antecedents <= known:
            derived[body.consequent] = imp.id
            added = True
    return added


def fired_conflicts(
    conflicts: Iterable[Requirement], derived: Set[str]
) -> frozenset[str]:
    """Ids of the conflicts whose antecedents are all in `derived`."""
    return frozenset(c.id for c in conflicts if c.body.antecedents <= derived)


def closure(
    pi: Iterable[Requirement | str], db: RequirementsDatabase | None = None
) -> Closure:
    """Everything derivable from the premise set `pi`.

    `db` supplies declarations for resolving ids that appear in `pi` (either
    as plain id strings or as references inside premises); only members of
    `pi` act as premises.
    """
    premises = _resolve_premises(pi, db)
    # Derived ids in derivation order, each with the implication that derived
    # it; premises have None.
    derived: dict[str, str | None] = dict.fromkeys(premises)
    implications = sorted(
        (r for r in premises.values() if isinstance(r.body, Implication)),
        key=lambda r: r.id,
    )
    while fire(implications, derived):
        pass
    support: dict[str, frozenset[str]] = {}
    for req_id, imp_id in derived.items():
        if imp_id is None:
            support[req_id] = frozenset()
        else:
            antecedents = premises[imp_id].body.antecedents
            support[req_id] = frozenset({imp_id}).union(*(support[a] for a in antecedents))
    fired = fired_conflicts(
        (r for r in premises.values() if isinstance(r.body, Conflict)), derived.keys()
    )
    return Closure(
        derived=frozenset(derived),
        bottom=bool(fired),
        support=support,
        bottom_witness=fired,
    )


def entails(
    pi: Iterable[Requirement | str],
    phi: Requirement | str,
    db: RequirementsDatabase | None = None,
) -> bool:
    """Whether `phi` is derivable from the premise set `pi`."""
    phi_id = phi.id if isinstance(phi, Requirement) else phi
    return phi_id in closure(pi, db).derived


def is_consistent(
    pi: Iterable[Requirement | str], db: RequirementsDatabase | None = None
) -> bool:
    """Whether `pi` fails to derive the contradiction."""
    return not closure(pi, db).bottom
