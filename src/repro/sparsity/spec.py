"""The precise fibertree-based sparsity specification (paper Sec. 3).

A :class:`SparsitySpec` is an ordered list of :class:`RankSpec` (highest
rank first); each rank optionally carries a pruning rule. The string form
matches the paper's Table 2 notation::

    C(unconstrained)->R->S              # channel pruning
    RS->C1->C0(2:4)                     # sparse tensor core 2:4
    RS->C2->C1(3:4)->C0(2:4)            # the two-rank HSS of Fig. 5

``->`` orders ranks from higher to lower; ranks without a parenthesized
rule are dense. Rank names ending in digits conventionally denote
partitioned ranks (``C`` split into ``C1``/``C0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.errors import SpecificationError
from repro.sparsity.pattern import (
    GH,
    Dense,
    GHRange,
    Unconstrained,
    parse_rule,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.fibertree import FiberTensor

Rule = Union[Dense, Unconstrained, GH, GHRange]


@dataclass(frozen=True)
class RankSpec:
    """One rank of a sparsity specification: a name plus a pruning rule."""

    name: str
    rule: Rule = field(default_factory=Dense)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SpecificationError(f"bad rank name {self.name!r}")

    @property
    def is_sparse(self) -> bool:
        """Whether this rank carries an explicit pruning rule."""
        return not isinstance(self.rule, Dense)

    def __str__(self) -> str:
        if isinstance(self.rule, Dense):
            return self.name
        return f"{self.name}({self.rule})"


@dataclass(frozen=True)
class SparsitySpec:
    """An ordered (highest rank first) fibertree sparsity specification."""

    ranks: Tuple[RankSpec, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise SpecificationError("a spec needs at least one rank")
        names = [rank.name for rank in self.ranks]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate rank names in {names}")

    @property
    def rank_names(self) -> Tuple[str, ...]:
        return tuple(rank.name for rank in self.ranks)

    @property
    def sparse_ranks(self) -> Tuple[RankSpec, ...]:
        """Ranks that carry pruning rules, highest first."""
        return tuple(rank for rank in self.ranks if rank.is_sparse)

    @property
    def num_sparse_ranks(self) -> int:
        """The N of an N-rank HSS (ranks with patterns assigned)."""
        return len(self.sparse_ranks)

    @property
    def is_hierarchical(self) -> bool:
        """Whether more than one rank has a pruning rule (HSS proper)."""
        return self.num_sparse_ranks > 1

    def density(self) -> Optional[float]:
        """Overall density when all rules are concrete G:H patterns.

        Returns ``None`` when any sparse rank is unconstrained or a
        GHRange (density is then not a single number).
        """
        result = 1.0
        for rank in self.sparse_ranks:
            if not isinstance(rank.rule, GH):
                return None
            result *= rank.rule.density
        return result

    def sparsity(self) -> Optional[float]:
        """Overall sparsity degree: ``1 - prod(G_n / H_n)`` (Sec. 4.1.2)."""
        density = self.density()
        return None if density is None else 1.0 - density

    def __str__(self) -> str:
        return "->".join(str(rank) for rank in self.ranks)

    def succinct(self) -> str:
        """The paper's short form: only ranks with patterns, e.g.
        ``C1(3:4)->C0(2:4)``."""
        sparse = self.sparse_ranks
        if not sparse:
            return "dense"
        return "->".join(str(rank) for rank in sparse)


def parse_spec(text: str) -> SparsitySpec:
    """Parse a specification string like ``"RS->C1(3:4)->C0(2:4)"``.

    Both the ASCII arrow ``->`` and the unicode arrow used in the paper
    are accepted.
    """
    text = text.strip().replace("→", "->")
    if not text:
        raise SpecificationError("empty specification string")
    ranks: List[RankSpec] = []
    for part in text.split("->"):
        part = part.strip()
        if not part:
            raise SpecificationError(f"empty rank in {text!r}")
        if "(" in part:
            if not part.endswith(")"):
                raise SpecificationError(f"unbalanced parens in {part!r}")
            name, rule_text = part[:-1].split("(", 1)
            ranks.append(RankSpec(name.strip(), parse_rule(rule_text)))
        else:
            ranks.append(RankSpec(part))
    return SparsitySpec(tuple(ranks))


def weight_tensor_spec_view(
    weights: np.ndarray, h_values: Tuple[int, ...]
) -> FiberTensor:
    """Build the partitioned fibertree view a spec's rules apply to.

    Takes a (C, R, S) weight tensor, reorders to (R, S, C), flattens R and
    S into RS, then repeatedly partitions the lowest rank by the H values
    given lowest-rank-first (e.g. ``h_values=(4, 4)`` reproduces the
    ``RS->C2->C1->C0`` view of Fig. 5 with fiber shapes 4 at C0 and C1).

    The fibertree (and with it numpy) loads on the first call: parsing
    specs, which every paper artifact does, needs neither.
    """
    from repro.fibertree import flatten, from_dense, partition, reorder

    if weights.ndim != 3:
        raise SpecificationError(
            f"expected a (C, R, S) tensor, got {weights.ndim} dims"
        )
    tree = from_dense(weights, ("C", "R", "S"), keep_zeros=True)
    tree = reorder(tree, ("R", "S", "C"))
    tree = flatten(tree, ("R", "S"), "RS")
    lowest = "C"
    for level, h in enumerate(h_values):
        is_last = level == len(h_values) - 1
        # Intermediate upper ranks get re-partitioned at the next level, so
        # only the final upper rank's name (C<N>) survives in the output.
        upper = f"C{len(h_values)}" if is_last else f"Ctmp{level}"
        tree = partition(tree, lowest, h, (upper, f"C{level}"))
        lowest = upper
    return tree
