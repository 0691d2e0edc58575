"""Forward-chaining consequence relation over requirement ids.

Derivation is purely symbolic: an id is derived when it is a premise, or when
it is the consequent of a premise implication whose antecedents are all
derived. A premise conflict whose antecedents are all derived flags the
contradiction; deriving the contradiction never licenses deriving anything
else (no ex falso), which keeps the relation paraconsistent.

The rules are compiled once, in `operationalization.ClosureIndex`. This
closure is the index's implication pass over the premise implications,
repeated until nothing is added, without the numeric discharge that
`satisfied_mask` adds; its conflicts fire through `fired_mask`.
"""

from __future__ import annotations


from ._record import field, record
from .errors import UnresolvedReferenceError
from .model import Requirement, RequirementsDatabase

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Mapping


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
    """The premises by id. An unknown id, or a premise that references one,
    raises; the least such id names the error, whatever the order of `pi`."""
    premises: dict[str, Requirement] = {}
    unknown = []
    for item in pi:
        if isinstance(item, Requirement):
            premises[item.id] = item
        elif db is not None and item in db:
            premises[item] = db[item]
        else:
            unknown.append(item)
    if unknown:
        raise UnresolvedReferenceError(f"cannot resolve premise id {min(unknown)!r}")
    universe = set(premises)
    if db is not None:
        universe |= set(db.requirements)
    bad = min((i for i, req in premises.items() if req.references() - universe), default=None)
    if bad is not None:
        missing = premises[bad].references() - universe
        raise UnresolvedReferenceError(f"{bad!r} references unresolved ids {sorted(missing)}")
    return premises


def closure(
    pi: Iterable[Requirement | str], db: RequirementsDatabase | None = None
) -> Closure:
    """Everything derivable from the premise set `pi`.

    `db` supplies declarations for resolving ids that appear in `pi` (either
    as plain id strings or as references inside premises); only members of
    `pi` act as premises. Each derived id's support is the implication that
    first derived it (passes in order, implications in id order within a
    pass) with the supports of its antecedents.
    """
    premises = _resolve_premises(pi, db)
    if db is not None and all(db.requirements.get(i) is r for i, r in premises.items()):
        index = db.closure_index
    else:  # the premises laid over `db`'s requirements, unvalidated
        table = {**(db.requirements if db is not None else {}), **premises}
        index = RequirementsDatabase(requirements=table).closure_index
    members = derived = index.mask(premises)
    rules = [
        (imp, ant, con)
        for imp, (bit, ant, con) in zip(index.implications.values(), index.implication_bits)
        if members & bit
    ]
    support = dict.fromkeys(premises, frozenset())  # in derivation order
    while True:
        start = derived
        for imp, ant, con in rules:
            if ant & derived == ant and not con & derived:
                derived |= con
                support[imp.body.consequent] = frozenset({imp.id}).union(
                    *(support[a] for a in imp.body.antecedents)
                )
        if derived == start:
            break
    fired = frozenset(index.ids_of(index.fired_mask(members, derived)))
    return Closure(
        derived=frozenset(support), bottom=bool(fired), support=support, bottom_witness=fired
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
