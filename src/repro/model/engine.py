"""Batch-first cost-evaluation engine.

Every layer of the reproduction — NSGA-II generations, the evaluation
service's executors, ``exhaustive_front``, the DSE baselines, and the
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
   fixed sequence of elementwise operations, executed on numpy arrays
   when numpy is importable (the ``"numpy"`` backend) and as a plain
   Python loop otherwise (the ``"python"`` backend).  The numpy backend
   gathers component costs per *distinct* parameter key and maps each
   genome onto its key with C-level dict lookups, so no Python code runs
   per genome.

Both backends replicate the *exact* operation order of
:func:`repro.model.integer.int_macro_cost` and
:func:`repro.model.floating.fp_macro_cost`, so the results are
bit-identical to the scalar path: IEEE-754 double arithmetic is
deterministic, and elementwise numpy float64 operations round exactly
like CPython floats.  That guarantee is what keeps persisted
:class:`repro.service.cache.EvaluationCache` entries and per-seed
NSGA-II trajectories unchanged no matter which backend ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

try:  # numpy is optional: the python backend covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - image bakes numpy in
    _np = None

__all__ = [
    "BatchCost",
    "CostEngine",
    "ENGINE_BACKENDS",
    "HAS_NUMPY",
    "resolve_backend",
]

#: True when the vectorised numpy backend can run in this interpreter.
HAS_NUMPY = _np is not None

#: Backend names accepted by :class:`CostEngine` and the CLI.
ENGINE_BACKENDS = ("auto", "numpy", "python")

#: Component-cost memo per cell-library content, shared process-wide.
#: ``CellLibrary`` holds a dict (unhashable) and ``default()`` builds a
#: new object per call, so the key is the content, not the object.
_COMPONENT_TABLES: dict[tuple, dict[tuple, Cost]] = {}


def _component_table(library: CellLibrary) -> dict[tuple, Cost]:
    """The shared component memo of every library equal to ``library``."""
    key = (library.name, tuple(sorted(library.cells.items())))
    return _COMPONENT_TABLES.setdefault(key, {})


def resolve_backend(backend: str = "auto") -> str:
    """Resolve a requested backend name to the one that will run.

    ``"auto"`` picks numpy when importable and falls back to the pure
    Python loop otherwise; the explicit names force one path (useful for
    parity tests and for debugging numpy-less deployments).

    Raises:
        ValueError: on an unknown name, or when ``"numpy"`` is forced
            but numpy is not importable.
    """
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {backend!r}; choose from {ENGINE_BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if HAS_NUMPY else "python"
    if backend == "numpy" and not HAS_NUMPY:
        raise ValueError("engine backend 'numpy' requested but numpy is not importable")
    return backend


@dataclass(frozen=True)
class BatchCost:
    """Columnar cost summary of one evaluated batch.

    The per-genome quantities mirror :class:`repro.model.macro.MacroCost`
    (same normalised NOR-gate units, same definitions), stored as plain
    Python tuples so downstream consumers never see backend-specific
    scalar types.

    Attributes:
        arch: architecture template of the batch (``"mixed"`` when a
            point batch spans both templates).
        backend: which engine backend produced the numbers.
        area / delay / energy_per_pass / cycles_per_pass / ops_per_pass /
            sram_bits: per-genome columns, in input order.
    """

    arch: str
    backend: str
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


def _empty_batch(arch: str, backend: str) -> BatchCost:
    return BatchCost(arch, backend, (), (), (), (), (), ())


def _batch_from_macro_costs(arch: str, costs: Sequence[MacroCost]) -> BatchCost:
    """Columnarise scalar macro costs (the pure-Python backend's output)."""
    return BatchCost(
        arch,
        "python",
        tuple(c.area for c in costs),
        tuple(c.delay for c in costs),
        tuple(c.energy_per_pass for c in costs),
        tuple(c.cycles_per_pass for c in costs),
        tuple(c.ops_per_pass for c in costs),
        tuple(c.sram_bits for c in costs),
    )


class CostEngine:
    """Batch evaluator for the INT and FP macro estimation models.

    Component costs are memoised per unique structural parameter in a
    table shared by every engine over an equal library, so repeated
    batches (one per NSGA-II generation, one per campaign) get cheaper
    as the design space is covered.  Engines are picklable, which lets
    :class:`repro.dse.problem.DcimProblem` carry one into process-pool
    workers; an unpickled engine joins the receiving process's table.

    Args:
        library: normalised standard-cell library shared by all
            evaluations.
        backend: ``"auto"`` (default), ``"numpy"``, or ``"python"``.
    """

    def __init__(
        self, library: CellLibrary | None = None, backend: str = "auto"
    ) -> None:
        self.library = library or CellLibrary.default()
        self.requested_backend = backend
        self.backend = resolve_backend(backend)
        self._memo = _component_table(self.library)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]  # process-wide; never copied across processes
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
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
        pos = _np.fromiter(map(index.__getitem__, keys), _np.intp, len(keys))
        columns = _np.array(table).reshape(len(index), -1).take(pos, axis=0).T
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
            return _empty_batch("int-mul", self.backend)
        # Parameters draw from tiny discrete sets, so validating the
        # unique tuples (first-occurrence order) covers the whole batch
        # without an O(batch) scalar loop; same errors, same order.
        for params in dict.fromkeys(zip(n, h, l, k)):
            validate_int_params(*params, bx, bw)
        if self.backend == "numpy":
            return self._int_numpy(n, h, l, k, bx, bw)
        return self._int_python(n, h, l, k, bx, bw)

    def _int_python(self, n, h, l, k, bx: int, bw: int) -> BatchCost:
        # The fallback IS the scalar model, fed memoised components: one
        # formula copy, bit-identical by construction.
        return _batch_from_macro_costs(
            "int-mul",
            [
                self._int_macro_cost(ni, hi, li, ki, bx, bw)
                for ni, hi, li, ki in zip(n, h, l, k)
            ],
        )

    def _int_numpy(self, n, h, l, k, bx: int, bw: int) -> BatchCost:
        lib = self.library
        n64 = _np.asarray(n, dtype=_np.int64)
        h64 = _np.asarray(h, dtype=_np.int64)
        l64 = _np.asarray(l, dtype=_np.int64)
        k64 = _np.asarray(k, dtype=_np.int64)

        (
            (sel_a, sel_d, sel_e),
            (mul_a, mul_d, mul_e),
            (tre_a, tre_d, tre_e),
            (acc_a, acc_d, acc_e),
            (fus_a, fus_d, fus_e),
            (buf_a, _, buf_e),
        ) = self._array_component_arrays(h, k, l, bx, bw)

        nh = n64 * h64
        nhf = nh.astype(_np.float64)
        nf = n64.astype(_np.float64)
        hf = h64.astype(_np.float64)
        fuf = (n64 // bw).astype(_np.float64)
        sram_area = (nh * l64).astype(_np.float64) * lib.sram.area

        cycles64 = -((-bx) // k64)
        cyclesf = cycles64.astype(_np.float64)
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
        delay = _np.maximum(_np.maximum(sel_d + mul_d + tre_d, acc_d), fus_d)
        ops = (2.0 * hf) * (nf / float(bw))
        return BatchCost(
            "int-mul",
            "numpy",
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
            return _empty_batch("fp-prealign", self.backend)
        for params in dict.fromkeys(zip(n, h, l, k)):
            validate_fp_params(*params, be, bm)
        if self.backend == "numpy":
            return self._fp_numpy(n, h, l, k, be, bm)
        return self._fp_python(n, h, l, k, be, bm)

    def _fp_python(self, n, h, l, k, be: int, bm: int) -> BatchCost:
        return _batch_from_macro_costs(
            "fp-prealign",
            [
                self._fp_macro_cost(ni, hi, li, ki, be, bm)
                for ni, hi, li, ki in zip(n, h, l, k)
            ],
        )

    def _fp_numpy(self, n, h, l, k, be: int, bm: int) -> BatchCost:
        lib = self.library
        n64 = _np.asarray(n, dtype=_np.int64)
        h64 = _np.asarray(h, dtype=_np.int64)
        l64 = _np.asarray(l, dtype=_np.int64)
        k64 = _np.asarray(k, dtype=_np.int64)

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
        nhf = nh.astype(_np.float64)
        nf = n64.astype(_np.float64)
        hf = h64.astype(_np.float64)
        fuf = (n64 // bm).astype(_np.float64)
        sram_area = (nh * l64).astype(_np.float64) * lib.sram.area

        cycles64 = -((-bm) // k64)
        cyclesf = cycles64.astype(_np.float64)
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
        delay = _np.maximum(
            _np.maximum(
                _np.maximum(_np.maximum(ali_d, sel_d + mul_d + tre_d), acc_d),
                fus_d,
            ),
            cvt_d,
        )
        ops = (2.0 * hf) * (nf / float(bm))
        return BatchCost(
            "fp-prealign",
            "numpy",
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
            return _empty_batch("mixed", self.backend)
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
        return BatchCost(arch, self.backend, *(tuple(c) for c in columns))

    def objectives_of_points(self, points: Sequence) -> list[tuple[float, ...]]:
        """``[A, D, E, -T]`` rows for many design points, in input order."""
        return self.evaluate_points(points).objectives()

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
