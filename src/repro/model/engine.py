"""Batch-first cost-evaluation engine.

Every layer of the reproduction — NSGA-II generations, the evaluation
service's executor, ``exhaustive_front``, the DSE baselines, and the
workload sweeps — ultimately needs objective vectors for *many* decoded
parameter sets at once.  The paper's estimation models (Tables V/VI) are
closed-form analytic expressions, so they are trivially array-evaluable:
this module computes area, stage delays, energy-per-pass, cycles- and
ops-per-pass for a whole batch in one call.

Two ideas make the batch path fast:

1. **Component memoisation.**  The per-genome parameters ``(N, H, L, k)``
   draw from tiny discrete sets (powers of two under the spec bounds,
   divisors of the input width), so the component models that contain
   loops — ``adder_tree``, ``mux``, ``barrel_shifter`` — are evaluated
   once per *unique* parameter value.  The memo is one table per cell
   library *content* (name and cells), shared by every engine in the
   process: each campaign builds new problems over a new
   ``CellLibrary.default()`` object, and they all find the components
   of the earlier ones.  Libraries are treated as immutable.
2. **Vectorised assembly.**  The remaining per-genome arithmetic is a
   fixed sequence of elementwise operations on numpy arrays.  Component
   costs are gathered per *distinct* parameter key and each genome is
   mapped onto its key with C-level dict lookups, so no Python code runs
   per genome.

Validation is column-wise too.  Every structural constraint of
:func:`repro.model.integer.validate_int_params` bounds a single
parameter column (``N``, ``H``, ``L`` or ``k``) against the batch's
widths, except ``N*H*L % Bw == 0``, which follows from ``N % Bw == 0``
for integer parameters.  So the engine checks each column's *distinct*
values (a handful per batch) instead of every distinct ``(N, H, L, k)``
row, and hands only the first rejected row to the scalar validator,
which raises with its own message: the same exception, text and row
as a per-row loop.

The array arithmetic replicates the *exact* operation order of
:func:`repro.model.integer.int_macro_cost` and
:func:`repro.model.floating.fp_macro_cost`, so the results are
bit-identical to the scalar path: IEEE-754 double arithmetic is
deterministic, and elementwise numpy float64 operations round exactly
like CPython floats.  That guarantee is what keeps persisted
:class:`repro.service.cache.EvaluationCache` entries and per-seed
NSGA-II trajectories unchanged; the scalar models stay as the oracle
the tests compare every batch against (:meth:`CostEngine.macro_cost`
feeds them the engine's memoised components).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.model.components import (
    adder_tree,
    input_buffer,
    int_to_fp_converter,
    prealignment,
    result_fusion,
    shift_accumulator,
)
from repro.model.cost import Cost
from repro.model.floating import fp_macro_cost, validate_fp_params
from repro.model.integer import int_macro_cost, validate_int_params
from repro.model.logic import multiplier_1xn, mux, register_bank
from repro.model.macro import MacroCost
from repro.tech.cells import CellLibrary

__all__ = ["BatchCost", "CostEngine"]

#: Component-cost memo per cell-library content, shared process-wide.
#: ``CellLibrary`` holds a dict (unhashable) and ``default()`` builds a
#: new object per call, so the key is the content, not the object.
_COMPONENT_TABLES: dict[tuple, dict[tuple, Cost]] = {}


def _component_table(library: CellLibrary) -> dict[tuple, Cost]:
    """The shared component memo of every library equal to ``library``."""
    key = (library.name, tuple(sorted(library.cells.items())))
    return _COMPONENT_TABLES.setdefault(key, {})


@dataclass(frozen=True)
class BatchCost:
    """Columnar cost summary of one evaluated batch.

    The per-genome quantities mirror :class:`repro.model.macro.MacroCost`
    (same normalised NOR-gate units, same definitions), stored as plain
    Python tuples so downstream consumers never see numpy scalar types.

    Attributes:
        arch: architecture template of the batch (``"mixed"`` when a
            point batch spans both templates).
        area / delay / energy_per_pass / cycles_per_pass / ops_per_pass /
            sram_bits: per-genome columns, in input order.
    """

    arch: str
    area: tuple[float, ...]
    delay: tuple[float, ...]
    energy_per_pass: tuple[float, ...]
    cycles_per_pass: tuple[int, ...]
    ops_per_pass: tuple[float, ...]
    sram_bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.area)

    def objectives(self) -> list[tuple[float, float, float, float]]:
        """Minimised ``[A, D, E, -T]`` rows, in input order.

        The throughput negation uses the same scalar expression as
        :func:`repro.dse.problem.objectives_of` over
        :attr:`MacroCost.throughput`, keeping the rows bit-identical to
        the scalar path.
        """
        return [
            (a, d, e, -(o / (c * d)))
            for a, d, e, c, o in zip(
                self.area,
                self.delay,
                self.energy_per_pass,
                self.cycles_per_pass,
                self.ops_per_pass,
            )
        ]

    def throughput(self) -> tuple[float, ...]:
        """Normalised ops per NOR-delay for each genome."""
        return tuple(
            o / (c * d)
            for o, c, d in zip(self.ops_per_pass, self.cycles_per_pass, self.delay)
        )


def _empty_batch(arch: str) -> BatchCost:
    return BatchCost(arch, (), (), (), (), (), ())


def _first_invalid_row(n, h, l, k, bx: int, bw: int) -> int | None:
    """Index of the first row :func:`validate_int_params` would reject.

    Checks the distinct values of each column against its own bounds
    (see the module docstring); widths below 1 reject every row.
    """
    if min(bx, bw) < 1:
        return 0
    bad_n = {v for v in set(n) if v < 1 or v % bw}
    bad_h = {v for v in set(h) if v < 1}
    bad_l = {v for v in set(l) if v < 1}
    bad_k = {v for v in set(k) if v < 1 or v > bx or bx % v}
    if not (bad_n or bad_h or bad_l or bad_k):
        return None
    return next(
        i
        for i, (ni, hi, li, ki) in enumerate(zip(n, h, l, k))
        if ni in bad_n or hi in bad_h or li in bad_l or ki in bad_k
    )


class CostEngine:
    """Batch evaluator for the INT and FP macro estimation models.

    Component costs are memoised per unique structural parameter in a
    table shared by every engine over an equal library, so repeated
    batches (one per NSGA-II generation, one per campaign) get cheaper
    as the design space is covered.

    Args:
        library: normalised standard-cell library shared by all
            evaluations.
    """

    def __init__(self, library: CellLibrary | None = None) -> None:
        self.library = library or CellLibrary.default()
        self._memo = _component_table(self.library)

    # Component memoisation ------------------------------------------------
    def _cost(self, key: tuple, factory: Callable[[], Cost]) -> Cost:
        # Threads may race to fill one missing key; the component models
        # are pure, so every write stores the same value and no lock is
        # needed.
        cost = self._memo.get(key)
        if cost is None:
            cost = factory()
            self._memo[key] = cost
        return cost

    def _int_components(
        self, l: int, k: int, h: int, bx: int, bw: int
    ) -> tuple[Cost, Cost, Cost, Cost, Cost, Cost]:
        return (
            self._select_cost(l),
            self._multiply_cost(k),
            self._tree_cost((h, k)),
        ) + self._column_costs(h, bx, bw)

    def _fp_components(
        self, l: int, k: int, h: int, be: int, bm: int
    ) -> tuple[Cost, ...]:
        return self._int_components(l, k, h, bm, bm) + self._fp_column_costs(
            h, be, bm
        )

    def _select_cost(self, l: int) -> Cost:
        return self._cost(("mux", l), lambda: mux(self.library, l))

    def _multiply_cost(self, k: int) -> Cost:
        return self._cost(("mult", k), lambda: multiplier_1xn(self.library, k))

    def _tree_cost(self, hk: tuple[int, int]) -> Cost:
        return self._cost(("tree", *hk), lambda: adder_tree(self.library, *hk))

    def _column_costs(self, h: int, bx: int, bw: int) -> tuple[Cost, Cost, Cost]:
        """Accumulator, fusion and input buffer of one ``H``-high column."""
        lib = self.library
        return (
            self._cost(("accu", bx, h), lambda: shift_accumulator(lib, bx, h)),
            self._cost(("fusion", bw, bx, h), lambda: result_fusion(lib, bw, bx, h)),
            self._cost(("buffer", h, bx), lambda: input_buffer(lib, h, bx)),
        )

    def _fp_column_costs(self, h: int, be: int, bm: int) -> tuple[Cost, Cost, Cost]:
        """Pre-alignment, INT-to-FP converter and exponent registers."""
        lib = self.library
        return (
            self._cost(("align", h, be, bm), lambda: prealignment(lib, h, be, bm)),
            self._cost(
                ("convert", bm, h, be), lambda: int_to_fp_converter(lib, bm, bm, h, be)
            ),
            self._cost(("regs", h * be), lambda: register_bank(lib, h * be)),
        )

    @staticmethod
    def _gather(keys: Sequence, make: Callable[..., Sequence[Cost]]):
        """Per-genome ``(area, delay, energy)`` arrays of some components.

        ``keys`` holds one hashable parameter key per genome and
        ``make(key)`` returns that key's component costs.  Each distinct
        key is built once; genomes reach their key through C-level dict
        lookups (``map`` over ``dict.__getitem__``), so no Python code
        runs per genome.  Returns one ``(area, delay, energy)`` triple of
        per-genome arrays per component, in ``make``'s order.
        """
        index = dict.fromkeys(keys)
        table: list[float] = []
        for j, key in enumerate(index):
            index[key] = j
            for c in make(key):
                table += (c.area, c.delay, c.energy)
        pos = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
        columns = np.array(table).reshape(len(index), -1).take(pos, axis=0).T
        return [columns[i:i + 3] for i in range(0, len(columns), 3)]

    def _array_component_arrays(self, h, k, l, bx: int, bw: int, fp=None):
        """Gathered (area, delay, energy) triples for the six components
        both architectures share (the FP mantissa datapath is the integer
        array with ``bx = bw = BM``): select, multiply, adder tree,
        accumulator, fusion, input buffer — then, with ``fp=(be, bm)``,
        the FP pre-alignment, converter and exponent registers.
        """
        def per_column(hi: int) -> tuple[Cost, ...]:
            costs = self._column_costs(hi, bx, bw)
            return costs if fp is None else costs + self._fp_column_costs(hi, *fp)

        return (
            self._gather(l, lambda li: (self._select_cost(li),))
            + self._gather(k, lambda ki: (self._multiply_cost(ki),))
            + self._gather(list(zip(h, k)), lambda hk: (self._tree_cost(hk),))
            + self._gather(h, per_column)
        )

    # Integer architecture -------------------------------------------------
    def evaluate_int(
        self,
        n: Sequence[int],
        h: Sequence[int],
        l: Sequence[int],
        k: Sequence[int],
        *,
        bx: int,
        bw: int,
    ) -> BatchCost:
        """Batch of Table V evaluations (``int_macro_cost`` vectorised).

        Args:
            n / h / l / k: equal-length per-genome parameter columns.
            bx / bw: input and weight widths, shared by the batch.
        """
        if not len(n):
            return _empty_batch("int-mul")
        bad = _first_invalid_row(n, h, l, k, bx, bw)
        if bad is not None:
            validate_int_params(n[bad], h[bad], l[bad], k[bad], bx, bw)
        lib = self.library
        n64 = np.asarray(n, dtype=np.int64)
        h64 = np.asarray(h, dtype=np.int64)
        l64 = np.asarray(l, dtype=np.int64)
        k64 = np.asarray(k, dtype=np.int64)

        (
            (sel_a, sel_d, sel_e),
            (mul_a, mul_d, mul_e),
            (tre_a, tre_d, tre_e),
            (acc_a, acc_d, acc_e),
            (fus_a, fus_d, fus_e),
            (buf_a, _, buf_e),
        ) = self._array_component_arrays(h, k, l, bx, bw)

        nh = n64 * h64
        nhf = nh.astype(np.float64)
        nf = n64.astype(np.float64)
        hf = h64.astype(np.float64)
        fuf = (n64 // bw).astype(np.float64)
        sram_area = (nh * l64).astype(np.float64) * lib.sram.area

        cycles64 = -((-bx) // k64)
        cyclesf = cycles64.astype(np.float64)
        per_cycle = nhf * sel_e + nhf * mul_e + nf * tre_e + nf * acc_e
        per_pass = buf_e + fuf * fus_e
        energy = per_cycle * cyclesf + per_pass
        area = (
            sram_area
            + nhf * sel_a
            + nhf * mul_a
            + nf * tre_a
            + nf * acc_a
            + fuf * fus_a
            + buf_a
        )
        delay = np.maximum(np.maximum(sel_d + mul_d + tre_d, acc_d), fus_d)
        ops = (2.0 * hf) * (nf / float(bw))
        return BatchCost(
            "int-mul",
            tuple(area.tolist()),
            tuple(delay.tolist()),
            tuple(energy.tolist()),
            tuple(cycles64.tolist()),
            tuple(ops.tolist()),
            tuple((nh * l64).tolist()),
        )

    # Floating-point architecture -----------------------------------------
    def evaluate_fp(
        self,
        n: Sequence[int],
        h: Sequence[int],
        l: Sequence[int],
        k: Sequence[int],
        *,
        be: int,
        bm: int,
    ) -> BatchCost:
        """Batch of Table VI evaluations (``fp_macro_cost`` vectorised).

        Args:
            n / h / l / k: equal-length per-genome parameter columns.
            be / bm: exponent and mantissa datapath widths, shared by
                the batch.
        """
        if not len(n):
            return _empty_batch("fp-prealign")
        bad = 0 if be < 1 else _first_invalid_row(n, h, l, k, bm, bm)
        if bad is not None:
            validate_fp_params(n[bad], h[bad], l[bad], k[bad], be, bm)
        lib = self.library
        n64 = np.asarray(n, dtype=np.int64)
        h64 = np.asarray(h, dtype=np.int64)
        l64 = np.asarray(l, dtype=np.int64)
        k64 = np.asarray(k, dtype=np.int64)

        (
            (sel_a, sel_d, sel_e),
            (mul_a, mul_d, mul_e),
            (tre_a, tre_d, tre_e),
            (acc_a, acc_d, acc_e),
            (fus_a, fus_d, fus_e),
            (buf_a, _, buf_e),
            (ali_a, ali_d, ali_e),
            (cvt_a, cvt_d, cvt_e),
            (reg_a, _, reg_e),
        ) = self._array_component_arrays(h, k, l, bm, bm, fp=(be, bm))

        nh = n64 * h64
        nhf = nh.astype(np.float64)
        nf = n64.astype(np.float64)
        hf = h64.astype(np.float64)
        fuf = (n64 // bm).astype(np.float64)
        sram_area = (nh * l64).astype(np.float64) * lib.sram.area

        cycles64 = -((-bm) // k64)
        cyclesf = cycles64.astype(np.float64)
        per_cycle = nhf * sel_e + nhf * mul_e + nf * tre_e + nf * acc_e
        per_pass = buf_e + ali_e + reg_e + fuf * fus_e + fuf * cvt_e
        energy = per_cycle * cyclesf + per_pass
        area = (
            sram_area
            + nhf * sel_a
            + nhf * mul_a
            + nf * tre_a
            + nf * acc_a
            + fuf * fus_a
            + buf_a
            + ali_a
            + reg_a
            + fuf * cvt_a
        )
        delay = np.maximum(
            np.maximum(
                np.maximum(np.maximum(ali_d, sel_d + mul_d + tre_d), acc_d),
                fus_d,
            ),
            cvt_d,
        )
        ops = (2.0 * hf) * (nf / float(bm))
        return BatchCost(
            "fp-prealign",
            tuple(area.tolist()),
            tuple(delay.tolist()),
            tuple(energy.tolist()),
            tuple(cycles64.tolist()),
            tuple(ops.tolist()),
            tuple((nh * l64).tolist()),
        )

    # Design-point front end -----------------------------------------------
    def evaluate_points(self, points: Sequence) -> BatchCost:
        """Batch-evaluate :class:`~repro.core.spec.DesignPoint`-likes.

        Points may mix precisions and architecture templates: the batch
        is grouped per precision, each group runs through the matching
        architecture model, and the columns are scattered back into
        input order.
        """
        if not points:
            return _empty_batch("mixed")
        groups: dict = {}
        for i, point in enumerate(points):
            groups.setdefault(point.precision, []).append(i)
        archs = {point.arch for point in points}
        arch = archs.pop() if len(archs) == 1 else "mixed"
        columns: list[list] = [[None] * len(points) for _ in range(6)]
        for precision, indices in groups.items():
            n = [points[i].n for i in indices]
            h = [points[i].h for i in indices]
            l = [points[i].l for i in indices]
            k = [points[i].k for i in indices]
            if precision.is_float:
                part = self.evaluate_fp(
                    n, h, l, k, be=precision.exponent_bits, bm=precision.mantissa_bits
                )
            else:
                part = self.evaluate_int(
                    n, h, l, k, bx=precision.bits, bw=precision.bits
                )
            rows = (
                part.area,
                part.delay,
                part.energy_per_pass,
                part.cycles_per_pass,
                part.ops_per_pass,
                part.sram_bits,
            )
            for column, row in zip(columns, rows):
                for j, i in enumerate(indices):
                    column[i] = row[j]
        return BatchCost(arch, *(tuple(c) for c in columns))

    # Scalar wrappers -------------------------------------------------------
    def macro_cost(self, point) -> MacroCost:
        """Full :class:`MacroCost` (with breakdown) for one design point.

        Identical to :meth:`DesignPoint.macro_cost`, but the component
        models come from the engine's memo — a batch of one.
        """
        p = point.precision
        if p.is_float:
            return self._fp_macro_cost(
                point.n, point.h, point.l, point.k, p.exponent_bits, p.mantissa_bits
            )
        return self._int_macro_cost(point.n, point.h, point.l, point.k, p.bits, p.bits)

    def macro_costs(self, points: Sequence) -> list[MacroCost]:
        """Full macro costs for many points, sharing the component memo."""
        return [self.macro_cost(point) for point in points]

    def _int_macro_cost(self, n, h, l, k, bx, bw) -> MacroCost:
        return int_macro_cost(
            self.library,
            n=n,
            h=h,
            l=l,
            k=k,
            bx=bx,
            bw=bw,
            components=self._int_components(l, k, h, bx, bw),
        )

    def _fp_macro_cost(self, n, h, l, k, be, bm) -> MacroCost:
        return fp_macro_cost(
            self.library,
            n=n,
            h=h,
            l=l,
            k=k,
            be=be,
            bm=bm,
            components=self._fp_components(l, k, h, be, bm),
        )
