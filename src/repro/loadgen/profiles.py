"""Declarative workload profiles: named, seeded, schema-validated.

llm-d-benchmark separates *what* traffic looks like (a named workload
profile) from *how* it is driven (a harness) and from *what* is
measured (a fixed metrics table).  This module is the first axis for
the distance-oracle serving stack: a :class:`WorkloadProfile` registry
mirroring :mod:`repro.variants` — one frozen record per named traffic
shape, with a :class:`~repro.variants.ParamSpec` schema (defaults +
range validation, exactly the machinery the variant registry uses) and
a deterministic builder that maps ``(profile, params, seed, tenants)``
to a concrete request sequence.

The registered profiles:

================== ====== ==============================================
profile            driver traffic shape
================== ====== ==============================================
``uniform_random`` closed independent uniform ``(u, v)`` singles — the
                          baseline every other profile is read against
``zipf_hotspot``   closed both endpoints Zipf(``skew``)-distributed, so
                          a few hot vertices dominate the traffic (on a
                          sharded mount, their shard's load dwarfs the
                          others')
``batch_single_mix`` closed a seeded coin mixes explicit ``pairs``
                          batches (``batch_fraction``, ``batch_size``)
                          into single-query traffic
``multi_tenant``   closed each request routes to a seeded choice among
                          several mounted artifacts (``/query/<name>``)
``burst``          open   ``burst_size`` requests arrive *simultaneously*
                          every ``gap_ms`` — the admission-control and
                          coalescer stress shape
================== ====== ==============================================

Determinism is the contract that makes the harness a measuring
instrument: the request sequence and the open-loop arrival schedule are
pure functions of the profile name, resolved params, seed, and the
mounted tenants — never of the front end, wall clock, or completion
order — so two runs with the same seed issue byte-identical queries and
their answers can be compared bit for bit (the cross-frontend fidelity
test does exactly that).

Only stdlib + numpy + :mod:`repro.variants` are imported here; profile
registration has no serving-stack dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..variants import ParamSpec, VariantParamError

__all__ = [
    "LoadgenError",
    "ProfileContext",
    "ProfileParamError",
    "Request",
    "UnknownProfileError",
    "WorkloadProfile",
    "all_profiles",
    "get_profile",
    "poisson_schedule",
    "profile_names",
    "register_profile",
    "zipf_probabilities",
]

#: The driver kinds a profile may declare (see ``loadgen.drivers``).
DRIVERS = ("closed", "open")


class LoadgenError(ValueError):
    """A load-harness configuration problem (unknown profile, bad
    parameter, tenant mismatch)."""


class UnknownProfileError(LoadgenError):
    """A profile name that is not in the registry."""


class ProfileParamError(LoadgenError):
    """A parameter value outside the profile's declared schema."""


@dataclass(frozen=True)
class Request:
    """One HTTP request the driver will issue: the JSON body, the mount
    route it targets, and how many (u, v) queries it carries."""

    payload: Mapping[str, object]
    tenant: str
    kind: str = "single"  # "single" | "batch"
    pairs: int = 1


@dataclass(frozen=True)
class ProfileContext:
    """Everything a profile builder may depend on — by design, nothing
    else (no wall clock, no front end, no server state)."""

    tenants: Tuple[Tuple[str, int], ...]  # (mount name, vertex count n)
    requests: int
    seed: int

    @property
    def first_tenant(self) -> Tuple[str, int]:
        return self.tenants[0]


@dataclass(frozen=True)
class WorkloadProfile:
    """One named traffic shape.

    ``build(ctx, **params) -> List[Request]`` produces the deterministic
    request sequence; ``schedule(ctx, rate, **params) -> offsets_s``
    (open-loop profiles only) produces the deterministic arrival
    schedule — profiles that leave it ``None`` get seeded Poisson
    arrivals at ``rate`` requests/s.  ``driver`` is the default driver
    (the harness can override it, llm-d's profile x harness sweep).
    ``min_tenants`` is how many mounted artifacts the profile needs.
    """

    name: str
    summary: str
    build: Callable[..., List[Request]]
    driver: str = "closed"
    params: Tuple[ParamSpec, ...] = ()
    schedule: Optional[Callable[..., np.ndarray]] = None
    min_tenants: int = 1

    # ------------------------------------------------------------------
    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def resolve_params(
        self, given: Optional[Dict[str, object]] = None, n: int = 0
    ) -> Dict[str, object]:
        """Validate ``given`` against the schema and fill defaults —
        the same contract as ``VariantSpec.resolve_params``; unknown
        names and out-of-range values raise :class:`ProfileParamError`
        naming the profile and its valid range."""
        given = {k: v for k, v in (given or {}).items() if v is not None}
        unknown = sorted(set(given) - set(self.param_names))
        if unknown:
            takes = (
                f"takes only {', '.join(self.param_names)}"
                if self.params else "takes no parameters"
            )
            raise ProfileParamError(
                f"profile {self.name!r} has no parameter "
                f"{', '.join(map(repr, unknown))} (it {takes})"
            )
        resolved = {}
        for p in self.params:
            try:
                value = p.resolve(given.get(p.name), n, self.name)
            except VariantParamError as exc:
                # ParamSpec's messages say "variant 'x'"; reword for
                # profiles so the CLI error names the right registry.
                raise ProfileParamError(
                    str(exc).replace(
                        f"variant {self.name!r}", f"profile {self.name!r}"
                    )
                )
            if value is not None:
                resolved[p.name] = value
        return resolved

    def describe_params(self) -> str:
        if not self.params:
            return "no parameters"
        return ", ".join(p.describe_range() for p in self.params)

    # ------------------------------------------------------------------
    def build_requests(
        self, ctx: ProfileContext, **params
    ) -> List[Request]:
        """The deterministic request sequence for this run."""
        if len(ctx.tenants) < self.min_tenants:
            raise LoadgenError(
                f"profile {self.name!r} needs >= {self.min_tenants} "
                f"mounted artifacts, got {len(ctx.tenants)} "
                f"({', '.join(n for n, _ in ctx.tenants) or 'none'})"
            )
        return self.build(ctx, **params)

    def build_schedule(
        self, ctx: ProfileContext, rate: float, **params
    ) -> np.ndarray:
        """The deterministic arrival schedule (open-loop runs): seconds
        from run start, one offset per request, non-decreasing."""
        if self.schedule is not None:
            return self.schedule(ctx, rate, **params)
        return poisson_schedule(ctx.requests, rate, ctx.seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_PROFILES: Dict[str, WorkloadProfile] = {}


def register_profile(profile: WorkloadProfile) -> WorkloadProfile:
    """Add one profile; duplicate names and unknown drivers fail loudly."""
    if profile.name in _PROFILES:
        raise LoadgenError(
            f"workload profile {profile.name!r} is already registered "
            f"(as {_PROFILES[profile.name].summary!r})"
        )
    if profile.driver not in DRIVERS:
        raise LoadgenError(
            f"profile {profile.name!r} declares unknown driver "
            f"{profile.driver!r}; expected one of {DRIVERS}"
        )
    _PROFILES[profile.name] = profile
    return profile


def get_profile(name: str) -> WorkloadProfile:
    """Look one profile up; unknown names list the registry."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise UnknownProfileError(
            f"unknown workload profile {name!r}; registered: "
            f"{', '.join(profile_names())}"
        )


def profile_names() -> Tuple[str, ...]:
    return tuple(sorted(_PROFILES))


def all_profiles() -> Tuple[WorkloadProfile, ...]:
    return tuple(_PROFILES[k] for k in sorted(_PROFILES))


# ----------------------------------------------------------------------
# Seeded generators (pure functions of their arguments)
# ----------------------------------------------------------------------

def _rng(ctx: ProfileContext) -> np.random.Generator:
    return np.random.default_rng(ctx.seed)


def uniform_pairs(
    n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` independent uniform (u, v) pairs over ``[0, n)``."""
    return rng.integers(0, n, (count, 2))


def zipf_probabilities(n: int, skew: float) -> np.ndarray:
    """The truncated-Zipf vertex distribution: vertex ``i`` is drawn
    with probability proportional to ``(i + 1) ** -skew``.  Exposed so
    the determinism suite can compare empirical frequencies against the
    exact distribution."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -float(skew)
    return weights / weights.sum()


def zipf_pairs(
    n: int, count: int, skew: float, rng: np.random.Generator
) -> np.ndarray:
    """``count`` (u, v) pairs with both endpoints Zipf-distributed —
    vertex 0 is the hottest, so a small hot set of endpoints dominates
    traffic."""
    p = zipf_probabilities(n, skew)
    return rng.choice(n, size=(count, 2), p=p)


def poisson_schedule(
    count: int, rate: float, seed: int
) -> np.ndarray:
    """Open-loop Poisson arrivals: ``count`` cumulative offsets (s) with
    seeded exponential inter-arrival times at mean ``1/rate``.  A pure
    function of ``(count, rate, seed)`` — the same seed replays the
    exact schedule on any front end."""
    if rate <= 0:
        raise LoadgenError(f"open-loop rate must be > 0 req/s, got {rate!r}")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=count)
    return np.cumsum(gaps)


# ----------------------------------------------------------------------
# The registered profiles
# ----------------------------------------------------------------------

def _single(u, v, tenant: str) -> Request:
    return Request(payload={"u": int(u), "v": int(v)}, tenant=tenant)


def _build_uniform(ctx: ProfileContext) -> List[Request]:
    name, n = ctx.first_tenant
    pairs = uniform_pairs(n, ctx.requests, _rng(ctx))
    return [_single(u, v, name) for u, v in pairs]


def _build_zipf(ctx: ProfileContext, skew: float) -> List[Request]:
    name, n = ctx.first_tenant
    pairs = zipf_pairs(n, ctx.requests, skew, _rng(ctx))
    return [_single(u, v, name) for u, v in pairs]


def _build_batch_mix(
    ctx: ProfileContext, batch_fraction: float, batch_size: int
) -> List[Request]:
    name, n = ctx.first_tenant
    rng = _rng(ctx)
    # Draw the coin flips first, then the pairs, so the number of rng
    # consumptions per request is fixed and the sequence stays stable.
    is_batch = rng.random(ctx.requests) < batch_fraction
    out: List[Request] = []
    for batched in is_batch:
        if batched:
            pairs = uniform_pairs(n, batch_size, rng)
            out.append(Request(
                payload={"pairs": [[int(u), int(v)] for u, v in pairs]},
                tenant=name, kind="batch", pairs=int(batch_size),
            ))
        else:
            u, v = uniform_pairs(n, 1, rng)[0]
            out.append(_single(u, v, name))
    return out


def _build_multi_tenant(ctx: ProfileContext) -> List[Request]:
    rng = _rng(ctx)
    choices = rng.integers(0, len(ctx.tenants), ctx.requests)
    out: List[Request] = []
    for t in choices:
        name, n = ctx.tenants[int(t)]
        u, v = uniform_pairs(n, 1, rng)[0]
        out.append(_single(u, v, name))
    return out


def _build_burst(ctx: ProfileContext, burst_size: int, gap_ms: float) -> List[Request]:
    return _build_uniform(ctx)


def _burst_schedule(
    ctx: ProfileContext, rate: float, burst_size: int, gap_ms: float
) -> np.ndarray:
    """``burst_size`` simultaneous arrivals every ``gap_ms`` — ``rate``
    is ignored (the burst shape *is* the schedule)."""
    idx = np.arange(ctx.requests)
    return (idx // int(burst_size)) * (float(gap_ms) / 1000.0)


register_profile(WorkloadProfile(
    name="uniform_random",
    summary="independent uniform (u, v) single queries",
    build=_build_uniform,
))

register_profile(WorkloadProfile(
    name="zipf_hotspot",
    summary="Zipf-skewed endpoints: a small hot vertex set dominates "
            "the traffic",
    build=_build_zipf,
    params=(ParamSpec(
        "skew", float, default=1.1, lo=0.05, hi=8.0,
        doc="Zipf exponent: vertex i drawn ∝ (i+1)^-skew "
            "(higher = hotter hot set)",
    ),),
))

register_profile(WorkloadProfile(
    name="batch_single_mix",
    summary="seeded mix of explicit `pairs` batches into single-query "
            "traffic",
    build=_build_batch_mix,
    params=(
        ParamSpec(
            "batch_fraction", float, default=0.25, lo=0.0, hi=1.0,
            doc="fraction of requests that are explicit batches",
        ),
        ParamSpec(
            "batch_size", int, default=32, lo=2, hi=100_000,
            doc="pairs per explicit batch request",
        ),
    ),
))

register_profile(WorkloadProfile(
    name="multi_tenant",
    summary="each request routes to a seeded choice among several "
            "mounted artifacts (/query/<name>)",
    build=_build_multi_tenant,
    min_tenants=2,
))

register_profile(WorkloadProfile(
    name="burst",
    summary="burst_size simultaneous arrivals every gap_ms — the "
            "admission-control stress shape",
    build=_build_burst,
    driver="open",
    schedule=_burst_schedule,
    params=(
        ParamSpec(
            "burst_size", int, default=32, lo=1, hi=100_000,
            doc="requests arriving at the same instant",
        ),
        ParamSpec(
            "gap_ms", float, default=100.0, lo=0.0, hi=60_000.0,
            doc="quiet time between bursts",
        ),
    ),
))
