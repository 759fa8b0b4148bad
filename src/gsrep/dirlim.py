"""Level-wise weight-cone classification for towers of unitary groups.

A level is a finite prefix (d_1, ..., d_N) of pairwise distinct reals; the
fixed-point group of conjugation by i*diag(d) is then the diagonal torus
at every level, and a character lam of the torus extends to a ground state
representation iff it pairs non-negatively with every cone generator,
i.e. iff lam_m >= lam_n whenever d_n > d_m.  Only finite levels are
represented; the tower exists as the family of levels plus the consistency
checks below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import LengthMismatch, SplitInvalid


@dataclass(frozen=True)
class DirectLimitSpec:
    """A finite level: pairwise distinct diagonal generator entries."""

    d_seq: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(x) for x in self.d_seq)
        if len(set(vals)) != len(vals):
            raise SplitInvalid("level entries must be pairwise distinct")
        object.__setattr__(self, "d_seq", vals)

    @property
    def level(self) -> int:
        return len(self.d_seq)

    def prefix(self, n: int) -> "DirectLimitSpec":
        return DirectLimitSpec(self.d_seq[:n])


def weight_cone_member(lam: Sequence[int], spec: DirectLimitSpec) -> bool:
    """Torus character lies in the extendable-weight cone of the level.

    True iff lam_m >= lam_n whenever d_n > d_m: along descending d the
    entries of lam must be (weakly) ascending.
    """
    lam = [int(x) for x in lam]
    if len(lam) != spec.level:
        raise LengthMismatch(f"expected {spec.level} weight entries, got {len(lam)}")
    d = spec.d_seq
    return all(
        lam[m] >= lam[n]
        for n in range(spec.level)
        for m in range(spec.level)
        if d[n] > d[m]
    )


def level_consistency(lam: Sequence[int], spec: DirectLimitSpec, n: int) -> bool:
    """Membership at the full level implies membership of every prefix.

    The prefix constraints are a subset of the full ones, so this must
    always return True; a False return is a property-test failure.
    """
    lam = [int(x) for x in lam]
    if len(lam) != spec.level:
        raise LengthMismatch("weight length must match the level")
    if not 0 < n < spec.level:
        raise LengthMismatch("prefix length must be strictly between 0 and the level")
    full = weight_cone_member(lam, spec)
    if not full:
        return True
    return weight_cone_member(lam[:n], spec.prefix(n))
