"""The named operator catalog reproducing Tables I and II of the paper.

Each :class:`CatalogEntry` carries the EvoApproxLib operator name, the
published characterisation (MRED %, power mW, delay ns) and a behavioural
model whose error magnitude sits in the same region of the design space.
The catalog is the component database the design-space explorer draws from:
adders and multipliers are exposed as 1-based indexed lists sorted by
increasing accuracy degradation, exactly as the paper's environment indexes
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, UnknownOperatorError
from repro.operators.adders import LowerOrAdder, TruncatedAdder
from repro.operators.base import Operator, OperatorCharacterization, OperatorKind
from repro.operators.energy import CostModel, OperationCost
from repro.operators.exact import ExactAdder, ExactMultiplier
from repro.operators.multipliers import (
    DrumMultiplier,
    LogMultiplier,
    OperandTruncationMultiplier,
)

__all__ = ["CatalogEntry", "OperatorCatalog", "default_catalog", "paper_adders", "paper_multipliers"]


@dataclass(frozen=True)
class CatalogEntry:
    """One row of Table I or Table II.

    Attributes
    ----------
    name:
        Operator identifier (EvoApproxLib naming, e.g. ``"add8_00M"``).
    kind:
        Whether the entry is an adder or a multiplier.
    width:
        Native bit width of the unit.
    published:
        The characterisation figures reported by the paper.
    factory:
        Zero-argument callable building the behavioural model.
    notes:
        Free-text description of the behavioural substitution.
    """

    name: str
    kind: OperatorKind
    width: int
    published: OperatorCharacterization
    factory: Callable[[], Operator]
    notes: str = ""

    def build(self) -> Operator:
        """Instantiate the behavioural model, stamped with the catalog name."""
        operator = self.factory()
        operator.name = self.name
        return operator

    @property
    def cost(self) -> OperationCost:
        """Per-operation cost taken from the published characterisation."""
        return OperationCost(power_mw=self.published.power_mw, delay_ns=self.published.delay_ns)


def _adder(name: str, width: int, mred: float, power: float, delay: float,
           factory: Callable[[], Operator], notes: str = "") -> CatalogEntry:
    return CatalogEntry(
        name=name, kind=OperatorKind.ADDER, width=width,
        published=OperatorCharacterization(mred_percent=mred, power_mw=power, delay_ns=delay),
        factory=factory, notes=notes,
    )


def _multiplier(name: str, width: int, mred: float, power: float, delay: float,
                factory: Callable[[], Operator], notes: str = "") -> CatalogEntry:
    return CatalogEntry(
        name=name, kind=OperatorKind.MULTIPLIER, width=width,
        published=OperatorCharacterization(mred_percent=mred, power_mw=power, delay_ns=delay),
        factory=factory, notes=notes,
    )


def paper_adders() -> List[CatalogEntry]:
    """The twelve adders of Table I, ordered as printed (by MRED per width)."""
    return [
        # 8-bit adders
        _adder("add8_1HG", 8, 0.0, 0.033, 0.63, lambda: ExactAdder(8),
               "exact reference 8-bit adder"),
        _adder("add8_6PT", 8, 0.14, 0.029, 0.55, lambda: LowerOrAdder(8, cut=1),
               "LOA with 1 approximate low bit"),
        _adder("add8_6R6", 8, 2.93, 0.012, 0.27, lambda: LowerOrAdder(8, cut=4),
               "LOA with 4 approximate low bits"),
        _adder("add8_0TP", 8, 6.16, 0.0095, 0.24, lambda: TruncatedAdder(8, cut=3),
               "low 3 operand bits truncated"),
        _adder("add8_00M", 8, 14.58, 0.0046, 0.17, lambda: TruncatedAdder(8, cut=4),
               "low 4 operand bits truncated"),
        _adder("add8_02Y", 8, 24.87, 0.0015, 0.11, lambda: TruncatedAdder(8, cut=5),
               "low 5 operand bits truncated"),
        # 16-bit adders
        _adder("add16_1A5", 16, 0.0, 0.072, 1.28, lambda: ExactAdder(16),
               "exact reference 16-bit adder"),
        _adder("add16_0GN", 16, 0.005, 0.057, 1.04, lambda: LowerOrAdder(16, cut=2),
               "LOA with 2 approximate low bits"),
        _adder("add16_0BC", 16, 0.018, 0.051, 0.95, lambda: LowerOrAdder(16, cut=4),
               "LOA with 4 approximate low bits"),
        _adder("add16_0HE", 16, 0.16, 0.036, 0.68, lambda: LowerOrAdder(16, cut=7),
               "LOA with 7 approximate low bits"),
        _adder("add16_0SL", 16, 9.54, 0.011, 0.27, lambda: TruncatedAdder(16, cut=11),
               "low 11 operand bits truncated"),
        _adder("add16_067", 16, 22.35, 0.0041, 0.20, lambda: TruncatedAdder(16, cut=13),
               "low 13 operand bits truncated"),
    ]


def paper_multipliers() -> List[CatalogEntry]:
    """The twelve multipliers of Table II, ordered as printed (by MRED per width)."""
    return [
        # 8-bit multipliers
        _multiplier("mul8_1JJQ", 8, 0.0, 0.391, 1.43, lambda: ExactMultiplier(8),
                    "exact reference 8-bit multiplier"),
        _multiplier("mul8_4X5", 8, 0.033, 0.380, 1.40, lambda: DrumMultiplier(8, k=7),
                    "dynamic truncation to 7 significant bits"),
        _multiplier("mul8_GTR", 8, 1.23, 0.303, 1.46, lambda: DrumMultiplier(8, k=5),
                    "dynamic truncation to 5 significant bits"),
        _multiplier("mul8_L93", 8, 4.52, 0.178, 1.11, lambda: LogMultiplier(8),
                    "Mitchell logarithmic multiplier"),
        _multiplier("mul8_18UH", 8, 17.98, 0.062, 0.90, lambda: DrumMultiplier(8, k=3),
                    "dynamic truncation to 3 significant bits"),
        _multiplier("mul8_17MJ", 8, 53.17, 0.0041, 0.11, lambda: DrumMultiplier(8, k=2),
                    "dynamic truncation to 2 significant bits"),
        # 32-bit multipliers
        _multiplier("mul32_precise", 32, 0.0, 10.76, 4.565, lambda: ExactMultiplier(32),
                    "exact reference 32-bit multiplier"),
        _multiplier("mul32_000", 32, 0.00, 10.46, 4.470, lambda: DrumMultiplier(32, k=20),
                    "dynamic truncation to 20 significant bits"),
        _multiplier("mul32_018", 32, 0.01, 4.32, 3.220, lambda: DrumMultiplier(32, k=14),
                    "dynamic truncation to 14 significant bits"),
        _multiplier("mul32_043", 32, 1.45, 1.63, 2.440, lambda: DrumMultiplier(32, k=7),
                    "dynamic truncation to 7 significant bits"),
        _multiplier("mul32_053", 32, 10.59, 1.05, 2.030,
                    lambda: OperandTruncationMultiplier(32, cut=24),
                    "low 24 operand bits truncated"),
        _multiplier("mul32_067", 32, 41.25, 0.51, 1.750,
                    lambda: OperandTruncationMultiplier(32, cut=27),
                    "low 27 operand bits truncated"),
    ]


class OperatorCatalog:
    """Indexed component database of adders and multipliers.

    Adders and multipliers are each kept sorted by increasing published MRED
    (i.e. increasing accuracy degradation), exactly as the paper sorts them,
    and are addressed with 1-based indices matching the environment state of
    Equation 1 (``adder ∈ {1..N_add}``, ``multiplier ∈ {1..N_mul}``).
    """

    def __init__(self, adders: Sequence[CatalogEntry], multipliers: Sequence[CatalogEntry]) -> None:
        if not adders or not multipliers:
            raise ConfigurationError("catalog requires at least one adder and one multiplier")
        for entry in adders:
            if entry.kind is not OperatorKind.ADDER:
                raise ConfigurationError(f"{entry.name} is not an adder")
        for entry in multipliers:
            if entry.kind is not OperatorKind.MULTIPLIER:
                raise ConfigurationError(f"{entry.name} is not a multiplier")
        self._adders = sorted(adders, key=lambda entry: (entry.published.mred_percent, entry.width))
        self._multipliers = sorted(
            multipliers, key=lambda entry: (entry.published.mred_percent, entry.width)
        )
        self._by_name: Dict[str, CatalogEntry] = {}
        for entry in list(self._adders) + list(self._multipliers):
            if entry.name in self._by_name:
                raise ConfigurationError(f"duplicate operator name {entry.name!r}")
            self._by_name[entry.name] = entry
        self._instances: Dict[str, Operator] = {}
        self._compiled_instances: Dict[str, Operator] = {}

    # ----------------------------------------------------------- collections

    @property
    def adders(self) -> Tuple[CatalogEntry, ...]:
        """Adder entries sorted by increasing accuracy degradation."""
        return tuple(self._adders)

    @property
    def multipliers(self) -> Tuple[CatalogEntry, ...]:
        """Multiplier entries sorted by increasing accuracy degradation."""
        return tuple(self._multipliers)

    @property
    def num_adders(self) -> int:
        return len(self._adders)

    @property
    def num_multipliers(self) -> int:
        return len(self._multipliers)

    # ------------------------------------------------------------- by index

    def adder(self, index: int) -> CatalogEntry:
        """Adder entry by 1-based index (1 = least degradation)."""
        if not 1 <= index <= len(self._adders):
            raise ConfigurationError(
                f"adder index must be in [1, {len(self._adders)}], got {index}"
            )
        return self._adders[index - 1]

    def multiplier(self, index: int) -> CatalogEntry:
        """Multiplier entry by 1-based index (1 = least degradation)."""
        if not 1 <= index <= len(self._multipliers):
            raise ConfigurationError(
                f"multiplier index must be in [1, {len(self._multipliers)}], got {index}"
            )
        return self._multipliers[index - 1]

    def adder_index(self, name: str) -> int:
        """1-based index of a named adder."""
        for position, entry in enumerate(self._adders, start=1):
            if entry.name == name:
                return position
        raise UnknownOperatorError(name)

    def multiplier_index(self, name: str) -> int:
        """1-based index of a named multiplier."""
        for position, entry in enumerate(self._multipliers, start=1):
            if entry.name == name:
                return position
        raise UnknownOperatorError(name)

    # -------------------------------------------------------------- by name

    def entry(self, name: str) -> CatalogEntry:
        """Catalog entry by operator name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOperatorError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> Tuple[str, ...]:
        """All operator names in the catalog."""
        return tuple(self._by_name)

    def instance(self, name: str) -> Operator:
        """Behavioural model of a named operator (cached per catalog)."""
        if name not in self._instances:
            self._instances[name] = self.entry(name).build()
        return self._instances[name]

    def compiled_instance(self, name: str) -> Operator:
        """Like :meth:`instance`, served from the fastest bit-identical kernel tier.

        Narrow approximate units come back as :mod:`repro.operators.compiled`
        lookup-table kernels, approximate units too wide to tabulate as
        shift-free wide kernels, and exact units as the analytic instance
        itself (see :func:`~repro.operators.compiled.select_kernel`).
        Kernels are cached per catalog and LUT tables are shared
        process-wide, so repeated evaluators pay the table build once.
        """
        if name not in self._compiled_instances:
            from repro.operators.compiled import select_kernel

            self._compiled_instances[name] = select_kernel(self.instance(name))
        return self._compiled_instances[name]

    # ----------------------------------------------------------- restriction

    def restrict_widths(self, adder_width: Optional[int] = None,
                        multiplier_width: Optional[int] = None) -> "OperatorCatalog":
        """A new catalog containing only operators of the requested widths.

        The paper explores each benchmark over the operators matching its
        datapath (8-bit adders and multipliers for Matrix Multiplication,
        16-bit adders and 32-bit multipliers for FIR); this helper builds
        that per-benchmark component database.  ``None`` keeps every width.
        """
        adders = [entry for entry in self._adders
                  if adder_width is None or entry.width == adder_width]
        multipliers = [entry for entry in self._multipliers
                       if multiplier_width is None or entry.width == multiplier_width]
        if not adders:
            raise ConfigurationError(f"no adders of width {adder_width} in the catalog")
        if not multipliers:
            raise ConfigurationError(f"no multipliers of width {multiplier_width} in the catalog")
        return OperatorCatalog(adders=adders, multipliers=multipliers)

    # ------------------------------------------------------ exact references

    def exact_adder(self, width: int) -> CatalogEntry:
        """The exact adder entry matching ``width`` most closely."""
        return self._closest_exact(self._adders, width, "adder")

    def exact_multiplier(self, width: int) -> CatalogEntry:
        """The exact multiplier entry matching ``width`` most closely."""
        return self._closest_exact(self._multipliers, width, "multiplier")

    @staticmethod
    def _closest_exact(entries: Sequence[CatalogEntry], width: int, kind: str) -> CatalogEntry:
        exact_entries = [entry for entry in entries if entry.published.mred_percent == 0.0]
        if not exact_entries:
            raise ConfigurationError(f"catalog has no exact {kind}")
        return min(exact_entries, key=lambda entry: (abs(entry.width - width), entry.width))

    # ------------------------------------------------------------ cost model

    def cost_model(self) -> CostModel:
        """Per-operation cost model covering every catalog operator."""
        return CostModel({name: entry.cost for name, entry in self._by_name.items()})


def default_catalog() -> OperatorCatalog:
    """The catalog reproducing the paper's component database (Tables I & II).

    Returns
    -------
    A fresh :class:`OperatorCatalog` holding the paper's selected adders and
    multipliers (published MRED / power / delay plus behavioural models),
    each list sorted by increasing published MRED as the paper indexes them.
    """
    return OperatorCatalog(adders=paper_adders(), multipliers=paper_multipliers())
