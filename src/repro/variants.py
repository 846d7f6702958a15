"""The variant registry: one declarative spec per algorithm variant.

The paper's algorithm family — near-additive ``(1+eps, beta)``-APSP
(Thm 32), ``(2+eps)``/``(3+eps)``-APSP (Thm 34), ``(1+eps)``-MSSP
(Thm 33), the exact/squaring/spanner baselines, and the classic
Thorup–Zwick bunches (Appendix A) — used to be wired into the codebase
four separate times: CLI dispatch lambdas, hardcoded variant tuples and
``if variant ==`` chains in the oracle build path, a second CLI choices
list, and one-off lists in the benchmark harness.  This module replaces
all of that with a single declarative registry:

* :class:`VariantSpec` — one record per variant: name, artifact
  ``kind``, parameter schema (:class:`ParamSpec`, with defaults and
  range validation), the proven ``(multiplicative, additive)`` stretch
  formula, weighted-graph support flags, round-ledger phase names, and
  the builder callables (``run`` for one-shot CLI/benchmark execution,
  ``build`` for oracle-artifact payloads);
* :func:`register_variant` — algorithm modules self-register
  (:mod:`repro.apsp.catalog` registers the APSP family,
  :mod:`repro.emulator.thorup_zwick` registers ``tz``); adding a future
  variant is one ``register_variant`` call and every consumer — CLI
  choices/help/dispatch, ``build_oracle``, artifact load validation, the
  multi-artifact server, the benchmark harness — picks it up;
* :class:`EmulatorConstruction` — the second variant axis: the four
  emulator constructions (``ideal`` / ``cc`` / ``whp`` /
  ``deterministic``) with their guarantee formulas and target-eps
  rescale factors, registered by :mod:`repro.apsp.near_additive`.

This module deliberately imports nothing from the rest of the library
(only stdlib + numpy), so any algorithm module may import it without
cycles.  Registry accessors lazily import the built-in registrars the
first time they are called (:func:`ensure_builtin_variants`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ARTIFACT_KINDS",
    "EmulatorConstruction",
    "ParamSpec",
    "UnknownVariantError",
    "VariantBuild",
    "VariantError",
    "VariantParamError",
    "VariantSpec",
    "all_variants",
    "artifact_variant_names",
    "cli_algo_variants",
    "emulator_construction",
    "emulator_construction_names",
    "ensure_builtin_variants",
    "get_variant",
    "headline_variants",
    "register_emulator_construction",
    "register_variant",
]


class VariantError(ValueError):
    """A variant-registry problem: unknown name, duplicate registration,
    or an input the variant does not support."""


class UnknownVariantError(VariantError):
    """A variant name that is not in the registry."""


class VariantParamError(VariantError):
    """A parameter value outside the variant's declared schema."""


# ----------------------------------------------------------------------
# Parameter schema
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One scalar parameter of a variant: type, default, valid range.

    ``default`` may be a plain value or a callable ``default(n)`` derived
    from the graph size at resolution time (e.g. the paper's
    ``r = log log n``).  Bounds are inclusive unless the matching
    ``*_open`` flag is set.
    """

    name: str
    type: type = float
    default: object = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False
    doc: str = ""

    def describe_range(self) -> str:
        """Human-readable valid range, e.g. ``0 < eps < 1``."""
        parts = []
        if self.lo is not None:
            parts.append(f"{self.lo:g} {'<' if self.lo_open else '<='} ")
        parts.append(self.name)
        if self.hi is not None:
            parts.append(f" {'<' if self.hi_open else '<='} {self.hi:g}")
        text = "".join(parts)
        if self.type is int:
            text += " (integer)"
        return text

    def resolve(self, value: object, n: int, variant: str) -> object:
        """Default, coerce, and range-check one value.

        Raises :class:`VariantParamError` naming the variant and its
        valid range on any violation.
        """
        if value is None:
            value = self.default(n) if callable(self.default) else self.default
            if value is None:
                return None
        if self.type is int:
            try:
                coerced = int(value)
                exact = float(coerced) == float(value)
            except (TypeError, ValueError):
                coerced, exact = None, False
            if not exact:
                raise VariantParamError(
                    f"variant {variant!r}: parameter {self.name!r} must be "
                    f"an integer, got {value!r}"
                )
        else:
            try:
                coerced = self.type(value)
            except (TypeError, ValueError):
                raise VariantParamError(
                    f"variant {variant!r}: parameter {self.name!r} must be "
                    f"a {self.type.__name__}, got {value!r}"
                )
        bad_lo = self.lo is not None and (
            coerced < self.lo or (self.lo_open and coerced == self.lo)
        )
        bad_hi = self.hi is not None and (
            coerced > self.hi or (self.hi_open and coerced == self.hi)
        )
        if bad_lo or bad_hi:
            raise VariantParamError(
                f"variant {variant!r}: {self.name}={coerced!r} is outside "
                f"the valid range {self.describe_range()}"
            )
        return coerced


# ----------------------------------------------------------------------
# Variant specs
# ----------------------------------------------------------------------

@dataclass
class VariantBuild:
    """What a variant's artifact builder hands back: the numeric payload
    plus the manifest fields only the algorithm knows."""

    arrays: Dict[str, np.ndarray]
    name: str
    multiplicative: float
    additive: float
    rounds_total: Optional[float] = None
    rounds_breakdown: Optional[Dict[str, float]] = None
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class VariantSpec:
    """One declarative record per algorithm/serving variant.

    ``build(g, rng=..., **params) -> VariantBuild`` produces the oracle
    artifact payload; ``run(g, rng=..., **params) -> DistanceResult`` is
    the one-shot execution the CLI and benchmarks use (``None`` for
    variants with no full-APSP run, e.g. ``tz``).  ``stretch(n,
    **params)`` is the proven ``(multiplicative, additive)`` formula;
    ``guarantee`` is its human-readable form for ``--help``.
    """

    name: str
    kind: str  # artifact kind: one of ARTIFACT_KINDS
    summary: str
    guarantee: str
    build: Callable[..., VariantBuild]
    run: Optional[Callable] = None
    stretch: Optional[Callable[..., Tuple[float, float]]] = None
    params: Tuple[ParamSpec, ...] = ()
    weighted: bool = False
    cli_algo: bool = False
    headline: bool = False

    # ------------------------------------------------------------------
    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def resolve_params(self, given: Optional[Dict[str, object]] = None,
                       n: int = 0) -> Dict[str, object]:
        """Validate ``given`` against the schema and fill defaults.

        Unknown keys and out-of-range values raise
        :class:`VariantParamError` naming the variant and the valid
        range; ``None`` values mean "use the default".
        """
        given = {k: v for k, v in (given or {}).items() if v is not None}
        unknown = sorted(set(given) - set(self.param_names))
        if unknown:
            takes = (
                f"takes only {', '.join(self.param_names)}"
                if self.params else "takes no parameters"
            )
            raise VariantParamError(
                f"variant {self.name!r} has no parameter "
                f"{', '.join(map(repr, unknown))} (it {takes})"
            )
        resolved = {}
        for p in self.params:
            value = p.resolve(given.get(p.name), n, self.name)
            if value is not None:
                resolved[p.name] = value
        return resolved

    def check_graph_support(self, weighted: bool) -> None:
        """Raise :class:`VariantError` when the variant does not support
        this graph flavour."""
        if weighted and not self.weighted:
            raise VariantError(
                f"variant {self.name!r} is unweighted-only; weighted-"
                f"capable variants: {', '.join(weighted_variant_names())}"
            )

    def describe_params(self) -> str:
        """One-line schema summary for help text."""
        if not self.params:
            return "no parameters"
        return ", ".join(p.describe_range() for p in self.params)


_VARIANTS: Dict[str, VariantSpec] = {}

#: Known artifact kinds.  A new kind must be added here *and* given an
#: engine branch (``oracle/engine.py``) plus a ``_KIND_ARRAYS`` entry
#: (``oracle/artifact.py``) — see DESIGN.md §1 "Adding a variant".
ARTIFACT_KINDS = ("matrix", "bunches", "sources", "edges", "core")


def register_variant(spec: VariantSpec) -> VariantSpec:
    """Add one spec to the registry; duplicate names fail loudly."""
    if spec.name in _VARIANTS:
        raise VariantError(
            f"variant {spec.name!r} is already registered "
            f"(by {_VARIANTS[spec.name].summary!r}); variant names must "
            "be unique"
        )
    if spec.kind not in ARTIFACT_KINDS:
        raise VariantError(
            f"variant {spec.name!r} declares unknown artifact kind "
            f"{spec.kind!r}; known kinds: {ARTIFACT_KINDS} (a new kind "
            "also needs an oracle/engine.py branch and a _KIND_ARRAYS "
            "entry — DESIGN.md §1)"
        )
    _VARIANTS[spec.name] = spec
    return spec


_BUILTIN_REGISTRARS = (
    "repro.apsp.catalog",
    "repro.emulator.thorup_zwick",
)
_builtins_loaded = False


def ensure_builtin_variants() -> None:
    """Import the built-in registrar modules once (idempotent)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_REGISTRARS:
        importlib.import_module(module)


def get_variant(name: str) -> VariantSpec:
    """Look one variant up; unknown names raise
    :class:`UnknownVariantError` listing the registry."""
    ensure_builtin_variants()
    try:
        return _VARIANTS[name]
    except KeyError:
        raise UnknownVariantError(
            f"unknown variant {name!r}; registered: "
            f"{', '.join(artifact_variant_names())}"
        )


def all_variants() -> Tuple[VariantSpec, ...]:
    """Every registered variant, sorted by name."""
    ensure_builtin_variants()
    return tuple(_VARIANTS[k] for k in sorted(_VARIANTS))


def artifact_variant_names() -> Tuple[str, ...]:
    """Names buildable into oracle artifacts (all registered variants)."""
    return tuple(s.name for s in all_variants())


def weighted_variant_names() -> Tuple[str, ...]:
    """Names of variants that accept a :class:`WeightedGraph`."""
    return tuple(s.name for s in all_variants() if s.weighted)


def cli_algo_variants() -> Tuple[VariantSpec, ...]:
    """Variants reachable through ``repro apsp --algo``."""
    return tuple(s for s in all_variants() if s.cli_algo)


def headline_variants() -> Tuple[VariantSpec, ...]:
    """Variants the headline benchmark (E12) measures."""
    return tuple(s for s in all_variants() if s.headline)


# ----------------------------------------------------------------------
# Emulator constructions (the second variant axis)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EmulatorConstruction:
    """One Section 3 emulator construction: builder, proven guarantee,
    and the target-eps rescale the applications apply.

    ``build(g, eps=..., r=..., rng=..., ledger=...)`` returns the
    construction's emulator result; ``guarantee(params)`` maps its
    :class:`~repro.emulator.params.EmulatorParams` to the proven
    ``(multiplicative, additive)`` stretch; ``eps_scale`` is the factor
    the 2+eps / 3+eps / MSSP pipelines multiply their target eps by
    before building (1/2 for the ideal build, 1/8 for the clique builds
    whose guarantee pays Appendix C.3's factor 4)."""

    name: str
    build: Callable
    guarantee: Callable[[object], Tuple[float, float]]
    eps_scale: float = 0.125
    deterministic: bool = False


_EMULATOR_CONSTRUCTIONS: Dict[str, EmulatorConstruction] = {}


def register_emulator_construction(spec: EmulatorConstruction) -> EmulatorConstruction:
    """Register one emulator construction; duplicates fail loudly."""
    if spec.name in _EMULATOR_CONSTRUCTIONS:
        raise VariantError(
            f"emulator construction {spec.name!r} is already registered"
        )
    _EMULATOR_CONSTRUCTIONS[spec.name] = spec
    return spec


def emulator_construction(name: str) -> EmulatorConstruction:
    """Look one construction up; unknown names raise
    :class:`UnknownVariantError` listing the known ones."""
    ensure_builtin_variants()
    try:
        return _EMULATOR_CONSTRUCTIONS[name]
    except KeyError:
        raise UnknownVariantError(
            f"unknown emulator construction {name!r}; known: "
            f"{', '.join(emulator_construction_names())}"
        )


def emulator_construction_names() -> Tuple[str, ...]:
    ensure_builtin_variants()
    return tuple(sorted(_EMULATOR_CONSTRUCTIONS))
