"""DP composition accounting across mechanism draws: the one privacy ledger.

Every mechanism draw of a run is recorded here, and nowhere else.
The ledger answers both the single run's question (does the run stay
inside its declared ε?) and the *publisher's*: what is the end-to-end
ε of a release assembled from several mechanism draws over several
pieces of one dataset?  Two composition rules cover everything the
streaming publisher does (Dwork & Roth, Theorems 3.14 / 3.16 — the
paper's Theorem 1 is the sequential case):

* **sequential** — draws that all read the same data add up:
  ``ε = Σ ε_i``;
* **parallel** — draws over *disjoint* partitions of the data cost
  only the worst partition: ``ε = max ε_i``.

A :class:`CompositionLedger` records every draw as a named
:class:`MechanismDraw` with the *scope* (which slice of the data it
read) and an optional *group* (draws sharing a group compose in
parallel and must name pairwise-distinct scopes; the group as a whole
then composes sequentially with everything else).  An optional
``budget`` caps the composed total: a draw that would exceed it is
refused before it is recorded, and so before the noise it pays for
is drawn.  The ledger is plain data: it serialises into report JSON
(``accounting``, with ``budget_ledger`` as its flat view) and
round-trips through :meth:`to_dict` / :meth:`from_dict`, so a
published artifact carries its own auditable ε accounting.

This module is a leaf — stdlib only — so every layer may use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

#: Scope of a draw over the whole dataset (the sequential default).
WHOLE_DATASET = "dataset"


#: Float slack of the budget cap: ε_G + ε_L must fit a budget of ε.
_BUDGET_SLACK = 1e-12


def _validate_epsilon(epsilon: float, label: str) -> float:
    try:
        epsilon = float(epsilon)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"draw {label!r} must spend a number, got {epsilon!r}"
        ) from None
    if math.isnan(epsilon) or math.isinf(epsilon) or epsilon <= 0.0:
        raise ValueError(
            f"draw {label!r} must spend a positive finite epsilon, "
            f"got {epsilon!r}"
        )
    return epsilon


@dataclass(frozen=True, slots=True)
class MechanismDraw:
    """One recorded mechanism invocation.

    ``scope`` names the slice of the dataset the draw read (e.g.
    ``"dataset"`` or ``"chunk:3"``); ``group`` is ``None`` for a
    sequentially-composed draw, or the name of the parallel group the
    draw belongs to.
    """

    label: str
    epsilon: float
    scope: str = WHOLE_DATASET
    group: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label.strip():
            raise ValueError(
                f"draw label must be a non-empty string, got {self.label!r}"
            )
        if not isinstance(self.scope, str) or not self.scope.strip():
            raise ValueError(
                f"draw {self.label!r} scope must be a non-empty string, "
                f"got {self.scope!r}"
            )
        if self.group is not None and not isinstance(self.group, str):
            raise ValueError(
                f"draw {self.label!r} group must be a string or null, "
                f"got {self.group!r}"
            )
        object.__setattr__(
            self, "epsilon", _validate_epsilon(self.epsilon, self.label)
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "epsilon": self.epsilon,
            "scope": self.scope,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MechanismDraw":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a ledger draw must be an object, got {payload!r}"
            )
        return cls(
            label=payload.get("label"),
            epsilon=payload.get("epsilon"),
            scope=payload.get("scope", WHOLE_DATASET),
            group=payload.get("group"),
        )


@dataclass(slots=True)
class CompositionLedger:
    """Sequential/parallel composition over named mechanism draws.

    Draws recorded with :meth:`record` compose sequentially; draws
    recorded with :meth:`record_parallel` under the same group name
    must cover pairwise-disjoint scopes and contribute only their
    maximum.  :attr:`epsilon_total` is then::

        Σ ε(sequential draws)  +  Σ_groups  max ε(draws in group)

    With a ``budget``, any record that would push :attr:`epsilon_total`
    over it raises :class:`ValueError` and leaves the ledger as it
    was; callers record a draw *before* drawing, so a refused draw
    never buys noise.
    """

    draws: list[MechanismDraw] = field(default_factory=list)
    #: Cap on :attr:`epsilon_total` (``None``: uncapped).  A guard on
    #: this ledger, not a fact of the release: :meth:`to_dict` leaves
    #: it out and equality ignores it.
    budget: float | None = field(default=None, compare=False)
    #: ``group -> scopes`` index behind the parallel-disjointness
    #: check (kept in step by :meth:`record_parallel`; rebuilt by
    #: :meth:`__post_init__` for ledgers constructed with draws).
    _group_scopes: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.budget is not None and not 0.0 < self.budget < math.inf:
            raise ValueError(
                f"ledger budget must be a positive finite epsilon, got "
                f"{self.budget!r}"
            )
        for draw in self.draws:
            if draw.group is not None:
                self._group_scopes.setdefault(draw.group, set()).add(
                    draw.scope
                )

    def _append(self, draw: MechanismDraw) -> None:
        """Append ``draw`` unless it would break the budget cap."""
        self.draws.append(draw)
        if self.budget is None:
            return
        total = self.epsilon_total
        if total > self.budget + _BUDGET_SLACK:
            self.draws.pop()
            raise ValueError(
                f"recording {draw.epsilon:g} for {draw.label!r} would "
                f"compose the ledger to {total:g}, over its budget "
                f"{self.budget:g}"
            )

    def record(
        self, label: str, epsilon: float, scope: str = WHOLE_DATASET
    ) -> MechanismDraw:
        """Record a sequentially-composed draw (reads ``scope``)."""
        draw = MechanismDraw(label=label, epsilon=epsilon, scope=scope)
        self._append(draw)
        return draw

    def record_parallel(
        self, group: str, label: str, epsilon: float, scope: str
    ) -> MechanismDraw:
        """Record a draw composing in parallel within ``group``.

        Parallel composition is only sound over disjoint data, so two
        draws of one group may not name the same scope.
        """
        if not group or not group.strip():
            raise ValueError("parallel group name must be non-empty")
        scopes = self._group_scopes.setdefault(group, set())
        if scope in scopes:
            raise ValueError(
                f"group {group!r} already holds a draw over scope "
                f"{scope!r}; parallel composition requires disjoint "
                f"scopes (use record() for a sequential draw)"
            )
        draw = MechanismDraw(
            label=label, epsilon=epsilon, scope=scope, group=group
        )
        self._append(draw)
        scopes.add(scope)
        return draw

    # -- aggregation ------------------------------------------------------------

    def sequential_draws(self) -> list[MechanismDraw]:
        return [draw for draw in self.draws if draw.group is None]

    def groups(self) -> dict[str, list[MechanismDraw]]:
        """Parallel groups in first-recorded order."""
        grouped: dict[str, list[MechanismDraw]] = {}
        for draw in self.draws:
            if draw.group is not None:
                grouped.setdefault(draw.group, []).append(draw)
        return grouped

    @property
    def epsilon_total(self) -> float:
        """End-to-end ε of everything recorded so far."""
        total = sum(draw.epsilon for draw in self.sequential_draws())
        for members in self.groups().values():
            total += max(draw.epsilon for draw in members)
        return total

    def merge(self, other: "CompositionLedger") -> None:
        """Append ``other``'s draws, revalidating group disjointness."""
        for draw in other.draws:
            if draw.group is None:
                self._append(draw)
            else:
                self.record_parallel(
                    draw.group, draw.label, draw.epsilon, draw.scope
                )

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form; inverse of :meth:`from_dict`.

        ``epsilon_total`` is included for human readers; ``from_dict``
        recomputes it from the draws and rejects a payload whose
        recorded total disagrees — a tampered or truncated ledger must
        not round-trip silently.
        """
        return {
            "epsilon_total": self.epsilon_total,
            "draws": [draw.to_dict() for draw in self.draws],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CompositionLedger":
        """Rebuild a ledger from :meth:`to_dict` output.

        Any payload of another shape raises :class:`ValueError`, so a
        caller replaying untrusted JSON (a tenant account file) has
        one exception type to catch.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"a ledger must be an object, got {payload!r}")
        entries = payload.get("draws", [])
        if not isinstance(entries, list):
            raise ValueError(f"ledger draws must be a list, got {entries!r}")
        ledger = cls()
        for entry in entries:
            draw = MechanismDraw.from_dict(entry)
            if draw.group is None:
                ledger.draws.append(draw)
            else:
                ledger.record_parallel(
                    draw.group, draw.label, draw.epsilon, draw.scope
                )
        declared = payload.get("epsilon_total")
        try:
            consistent = declared is None or math.isclose(
                declared, ledger.epsilon_total, rel_tol=1e-9, abs_tol=1e-9
            )
        except (TypeError, OverflowError):
            consistent = False
        if not consistent:
            raise ValueError(
                f"ledger payload declares epsilon_total={declared} but its "
                f"draws compose to {ledger.epsilon_total}"
            )
        return ledger
