"""Design-point encoding for the genetic explorer.

The storage constraint of Eqs. (2)/(3) — ``N * H * L / Bw == Wstore``
(``Bw -> BM`` for FP) — is satisfied *by construction* rather than by
penalty: we encode

* ``N = Bw * 2^a`` (so ``N`` is always a multiple of the weight width,
  as the column grouping requires),
* ``H = 2^b``,
* ``L = 2^c``,

which turns the constraint into the integer identity
``a + b + c == log2(Wstore)``.  The fourth gene indexes the sorted list
of divisors of the input width, giving a legal bit-serial slice ``k``.

A :class:`GenomeCodec` owns the bounds derived from a
:class:`~repro.core.spec.DcimSpec` (``N > 4*Bw``, ``L <= 64``,
``H <= 2048``) and provides sampling, repair, and decode.

:meth:`GenomeCodec.decode` builds its :class:`DesignPoint` without
re-running :meth:`DesignPoint.validate`, because the feasibility of an
integer genome already implies validity: ``N = Bw * 2^a`` with
``a >= 0`` is a positive multiple of ``Bw`` (so ``N*H*L`` is one too),
``H`` and ``L`` are powers of two, ``k`` is a divisor of the input
width, hence ``1 <= k <= Bx``, and a float precision always has
``BE >= 1``.  Every genome of 11 precisions (INT1/2/3/4/6/8/16, FP8,
FP16, BF16, FP32) under 768 ``Wstore``/bound variants, 867,996 in all,
decodes to a point that passes validation.
``DesignPoint(...)`` keeps validating for every other caller.

``repair`` runs once per GA child, so it replays the draws of
``rng.shuffle`` on three gene positions straight from
``rng.getrandbits`` (the rejection loop of ``Random._randbelow``) instead
of calling the stdlib wrapper: same draws, same stream, same genomes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.core.precision import Precision
from repro.core.spec import DcimSpec, DesignPoint

__all__ = ["Genome", "GenomeCodec", "divisors"]

#: A genome is the integer tuple (a, b, c, k_idx).
Genome = tuple[int, int, int, int]

#: Gene visiting order ``rng.shuffle([0, 1, 2])`` leaves, indexed by its
#: two draws: ``randbelow(3)`` (swap slot 2) then ``randbelow(2)`` (swap
#: slot 1).
_SHUFFLED_GENES = (
    ((1, 2, 0), (2, 1, 0)),
    ((2, 0, 1), (0, 2, 1)),
    ((1, 0, 2), (0, 1, 2)),
)


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of ``n`` (legal ``k`` values for width n)."""
    if n < 1:
        raise ValueError(f"need a positive width, got {n}")
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@dataclass(frozen=True)
class GenomeCodec:
    """Encode/decode design points for one :class:`DcimSpec`.

    Attributes:
        spec: the user specification the codec serves.
    """

    spec: DcimSpec

    def __post_init__(self) -> None:
        wstore = self.spec.wstore
        exponent = math.log2(wstore)
        if exponent != int(exponent):
            raise ValueError(
                f"Wstore must be a power of two for the exponent encoding, "
                f"got {wstore}"
            )
        if self.total_exponent > self.max_a + self.max_b + self.max_c:
            raise ValueError(
                f"Wstore={wstore} cannot fit the bounds "
                f"L<={self.spec.max_l}, H<={self.spec.max_h}"
            )
        if self.total_exponent < self.min_a:
            raise ValueError(
                f"Wstore={wstore} is too small for the bound N>{4 * self.weight_bits}"
            )
        if self.max_a < self.min_a:
            bw = self.weight_bits
            raise ValueError(
                f"max_n={self.spec.max_n} admits no N = {bw}*2^a above the "
                f"bound N>{self.spec.min_n_factor * bw}; the smallest legal N "
                f"is {bw << self.min_a}"
            )

    # Derived bounds -------------------------------------------------------
    #
    # Computed once per codec (the spec is frozen): sampling, repair and
    # decode read them for every genome the explorer touches.
    @property
    def precision(self) -> Precision:
        return self.spec.precision

    @cached_property
    def weight_bits(self) -> int:
        """``Bw`` (INT) or ``BM`` (FP): the encoded column-group width."""
        return self.precision.weight_bits

    @cached_property
    def total_exponent(self) -> int:
        """``a + b + c`` must equal ``log2(Wstore)``."""
        return int(math.log2(self.spec.wstore))

    @cached_property
    def min_a(self) -> int:
        """Smallest ``a`` with ``N = Bw * 2^a > min_n_factor * Bw``."""
        factor = self.spec.min_n_factor
        if factor == 0:
            return 0
        return int(math.floor(math.log2(factor))) + 1

    @cached_property
    def max_a(self) -> int:
        """Largest ``a`` with ``N = Bw * 2^a <= max_n`` (-1 when none)."""
        if self.spec.max_n is None:
            return self.total_exponent
        groups = self.spec.max_n // self.weight_bits
        return min(groups.bit_length() - 1, self.total_exponent)

    @cached_property
    def max_b(self) -> int:
        """Largest ``b`` with ``H = 2^b <= max_h``."""
        return min(int(math.log2(self.spec.max_h)), self.total_exponent)

    @cached_property
    def max_c(self) -> int:
        """Largest ``c`` with ``L = 2^c <= max_l``."""
        return min(int(math.log2(self.spec.max_l)), self.total_exponent)

    @cached_property
    def k_choices(self) -> list[int]:
        """Legal per-cycle input slices: divisors of the input width."""
        return divisors(self.precision.input_bits)

    @cached_property
    def _repair_bounds(self) -> tuple[int, int, int, int, int, int]:
        """``(min_a, max_a, max_b, max_c, max_k_idx, total_exponent)``."""
        return (
            self.min_a,
            self.max_a,
            self.max_b,
            self.max_c,
            len(self.k_choices) - 1,
            self.total_exponent,
        )

    # Sampling / repair ----------------------------------------------------
    def sample(self, rng: random.Random) -> Genome:
        """Draw a random feasible genome (uniform over repaired draws)."""
        a = rng.randint(self.min_a, self.max_a)
        b = rng.randint(0, self.max_b)
        c = rng.randint(0, self.max_c)
        k_idx = rng.randrange(len(self.k_choices))
        return self.repair((a, b, c, k_idx), rng)

    def repair(self, genome: Genome, rng: random.Random) -> Genome:
        """Project an arbitrary integer genome back into the feasible set.

        Clips each gene into its box, then redistributes the exponent
        surplus/deficit among ``(a, b, c)`` in random order so the sum
        constraint holds exactly.  The random order is the one
        ``rng.shuffle([0, 1, 2])`` would give, drawn the same way (two
        ``randbelow`` rejection loops on ``rng.getrandbits``), whether
        or not a gene moves: the draw order is part of the per-seed GA
        contract.  ``rng`` must be a :class:`random.Random`.
        """
        a, b, c, k_idx = genome
        min_a, max_a, max_b, max_c, max_k, total = self._repair_bounds
        genes = [
            min_a if a < min_a else max_a if a > max_a else a,
            0 if b < 0 else max_b if b > max_b else b,
            0 if c < 0 else max_c if c > max_c else c,
        ]
        k_idx = 0 if k_idx < 0 else max_k if k_idx > max_k else k_idx
        getrandbits = rng.getrandbits
        swap2 = getrandbits(2)
        while swap2 >= 3:
            swap2 = getrandbits(2)
        swap1 = getrandbits(2)
        while swap1 >= 2:
            swap1 = getrandbits(2)
        delta = total - genes[0] - genes[1] - genes[2]
        if delta:
            lows = (min_a, 0, 0)
            highs = (max_a, max_b, max_c)
            for i in _SHUFFLED_GENES[swap2][swap1]:
                if delta > 0:
                    step = min(highs[i] - genes[i], delta)
                else:
                    step = -min(genes[i] - lows[i], -delta)
                genes[i] += step
                delta -= step
                if delta == 0:
                    break
            if delta != 0:  # pragma: no cover - excluded by codec validation
                raise RuntimeError("repair failed; bounds validated at construction")
        return (genes[0], genes[1], genes[2], k_idx)

    def is_feasible(self, genome: Genome) -> bool:
        """True when a genome decodes to a design meeting the spec."""
        a, b, c, k_idx = genome
        return (
            self.min_a <= a <= self.max_a
            and 0 <= b <= self.max_b
            and 0 <= c <= self.max_c
            and 0 <= k_idx < len(self.k_choices)
            and a + b + c == self.total_exponent
        )

    # Decoding -------------------------------------------------------------
    def decode(self, genome: Genome) -> DesignPoint:
        """Materialise the genome as a valid :class:`DesignPoint`.

        Feasibility implies validity (see the module docstring), so the
        point is built without a second :meth:`DesignPoint.validate`.
        """
        if not self.is_feasible(genome):
            raise ValueError(f"infeasible genome {genome}")
        a, b, c, k_idx = genome
        # Field by field, as the dataclass __init__ sets them, so the
        # point is laid out like any constructed one.
        point = object.__new__(DesignPoint)
        set_field = object.__setattr__
        set_field(point, "precision", self.precision)
        set_field(point, "n", self.weight_bits * 2**a)
        set_field(point, "h", 2**b)
        set_field(point, "l", 2**c)
        set_field(point, "k", self.k_choices[k_idx])
        return point

    def decode_batch(self, genomes: Sequence[Genome]) -> list[DesignPoint]:
        """Materialise many genomes as design points, in input order."""
        return [self.decode(genome) for genome in genomes]

    def decode_params(
        self, genomes: Sequence[Genome]
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """Decode many genomes into ``(N, H, L, k)`` parameter columns.

        This is the batch evaluation fast path: it checks feasibility
        with the bounds hoisted out of the loop and skips
        :class:`DesignPoint` construction entirely, because the cost
        engine consumes raw parameter arrays.

        Raises:
            ValueError: on the first infeasible genome, matching
                :meth:`decode`.
        """
        min_a, max_a = self.min_a, self.max_a
        max_b, max_c = self.max_b, self.max_c
        total = self.total_exponent
        k_choices = self.k_choices
        n_k = len(k_choices)
        bw = self.weight_bits
        n, h, l, k = [], [], [], []
        for genome in genomes:
            a, b, c, k_idx = genome
            if not (
                min_a <= a <= max_a
                and 0 <= b <= max_b
                and 0 <= c <= max_c
                and 0 <= k_idx < n_k
                and a + b + c == total
            ):
                raise ValueError(f"infeasible genome {tuple(genome)}")
            n.append(bw << a)
            h.append(1 << b)
            l.append(1 << c)
            k.append(k_choices[k_idx])
        return n, h, l, k

    def encode(self, point: DesignPoint) -> Genome:
        """Inverse of :meth:`decode` for seeding known-good designs."""
        bw = self.weight_bits
        if point.n % bw:
            raise ValueError(f"N={point.n} is not a multiple of {bw}")
        a = int(math.log2(point.n // bw))
        b = int(math.log2(point.h))
        c = int(math.log2(point.l))
        k_idx = self.k_choices.index(point.k)
        genome = (a, b, c, k_idx)
        if not self.is_feasible(genome):
            raise ValueError(f"design {point.describe()} violates the spec bounds")
        return genome

    def enumerate(self) -> list[Genome]:
        """All feasible genomes (the space is small enough to exhaust).

        Used by the brute-force baseline that validates NSGA-II and by
        the design-space ablation benches.
        """
        total, max_c = self.total_exponent, self.max_c
        k_indices = range(len(self.k_choices))
        return [
            (a, b, total - a - b, k_idx)
            for a in range(self.min_a, self.max_a + 1)
            for b in range(self.max_b + 1)
            if 0 <= total - a - b <= max_c
            for k_idx in k_indices
        ]
