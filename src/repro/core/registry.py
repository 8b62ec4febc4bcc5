"""The engine registry: one place where SVD engines are declared.

Historically the engine vocabulary lived in a stringly ``METHODS``
tuple plus three hand-maintained if/elif ladders (``core.svd``
dispatch, the serving layer's executor, and the CLI's ``choices``
lists).  Adding an engine meant touching all of them.  This module
replaces that with one :class:`EngineSpec` per engine:

* ``name`` — the public method/engine identifier;
* ``fn`` — an adapter with the uniform engine signature
  ``fn(a, *, compute_uv, criterion, ordering, seed, **engine_opts)``;
* ``supported_orderings`` — pair orderings the engine accepts
  (validated at dispatch, so e.g. ``blocked`` still rejects "row");
* ``options_schema`` — the engine-specific knobs (``rotation_impl``,
  ``block_rounds``, ...) with their allowed values or a validator;
* ``instrumented`` — whether the engine emits ``core.sweep`` spans
  through :mod:`repro.obs`.

:func:`resolve_engine` is the single lookup all three layers use;
:func:`register_engine` makes adding an engine one registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.ordering import ORDERINGS
from repro.util.validation import check_positive_float, check_positive_int

__all__ = [
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "resolve_engine",
    "engine_names",
    "METHODS",
]

# Engine-option vocabularies, defined once.  This module imports no
# engine, so the engines (which re-export these names) and the serving
# layer can share them without importing each other.
ROTATION_IMPLS = ("textbook", "dataflow")
TRACK_COLUMN_MODES = ("always", "first_sweep", "never")
PRECISIONS = ("fp64", "mixed", "fp32")


@dataclass(frozen=True)
class EngineSpec:
    """Declaration of one SVD engine.

    Attributes
    ----------
    name : str
        Public identifier (the ``method=``/``engine=`` value).
    fn : callable
        ``fn(a, *, compute_uv, criterion, ordering, seed,
        **engine_opts) -> SVDResult``.  Adapters for engines that do
        not take an ordering (blocked, preconditioned) drop it.
    supported_orderings : tuple of str
        Pair orderings the engine accepts; dispatch validates against
        this before calling ``fn``.
    options_schema : mapping
        Engine-specific option name -> allowed values.  A tuple means
        membership; a callable is invoked with the value (raising on
        rejection); None accepts anything.
    instrumented : bool
        Whether the engine emits spans via :mod:`repro.obs`.
    description : str
        One-line summary (shown by ``repro trace``-style tooling).
    """

    name: str
    fn: Callable
    supported_orderings: tuple = ORDERINGS
    options_schema: Mapping = field(default_factory=dict)
    instrumented: bool = True
    description: str = ""

    def validate_options(self, opts: Mapping) -> dict:
        """Check *opts* against the schema; returns a plain dict.

        Raises ``ValueError`` naming the offending option, both for
        unknown keys (e.g. ``block_rounds`` on a non-vectorized
        engine) and out-of-choices values.
        """
        out = {}
        for key, value in dict(opts).items():
            if key not in self.options_schema:
                valid = sorted(self.options_schema) or ["(none)"]
                raise ValueError(
                    f"{key} is not an option of engine {self.name!r}; "
                    f"valid engine_opts: {valid}"
                )
            allowed = self.options_schema[key]
            if isinstance(allowed, tuple):
                if value not in allowed:
                    raise ValueError(
                        f"engine {self.name!r} option {key}={value!r}: "
                        f"must be one of {allowed}"
                    )
            elif callable(allowed):
                allowed(value)
            out[key] = value
        return out

    def validate_ordering(self, ordering: str) -> str:
        """Check *ordering* is supported; returns it unchanged."""
        if ordering not in self.supported_orderings:
            raise ValueError(
                f'method="{self.name}" supports ordering(s) '
                f"{self.supported_orderings}, got {ordering!r}"
            )
        return ordering


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add *spec* to the registry (``replace=True`` to overwrite)."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove an engine (primarily for tests registering temporaries)."""
    _REGISTRY.pop(name, None)


def resolve_engine(name: str) -> EngineSpec:
    """Look up an engine by name; the one resolution path for core,
    serve, and the CLI."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine/method {name!r}: registered engines are "
            f"{engine_names()}"
        )
    return spec


def engine_names() -> tuple:
    """Currently registered engine names, in registration order."""
    return tuple(_REGISTRY)


# ---- built-in engine registrations --------------------------------------
#
# The adapters normalize every engine to the uniform signature; lazy
# imports keep the vectorized/preconditioned modules off the critical
# import path, mirroring the old dispatch.


def _run_reference(a, *, compute_uv, criterion, ordering, seed, **opts):
    from repro.core.hestenes import reference_svd

    return reference_svd(
        a, compute_uv=compute_uv, criterion=criterion, ordering=ordering,
        seed=seed, **opts,
    )


def _run_modified(a, *, compute_uv, criterion, ordering, seed, **opts):
    from repro.core.modified import modified_svd

    return modified_svd(
        a, compute_uv=compute_uv, criterion=criterion, ordering=ordering,
        seed=seed, **opts,
    )


def _run_blocked(a, *, compute_uv, criterion, ordering, seed, **opts):
    from repro.core.blocked import blocked_svd

    return blocked_svd(a, compute_uv=compute_uv, criterion=criterion, **opts)


def _run_vectorized(a, *, compute_uv, criterion, ordering, seed, **opts):
    from repro.core.vectorized import vectorized_svd

    return vectorized_svd(
        a, compute_uv=compute_uv, criterion=criterion, ordering=ordering,
        seed=seed, **opts,
    )


def _run_preconditioned(a, *, compute_uv, criterion, ordering, seed, **opts):
    from repro.core.preconditioned import preconditioned_svd

    return preconditioned_svd(a, compute_uv=compute_uv, criterion=criterion, **opts)


def _positive_int(value) -> None:
    check_positive_int(value, name="block_rounds")


def _positive_float(value) -> None:
    check_positive_float(value, name="switch_tol")


register_engine(EngineSpec(
    name="reference",
    fn=_run_reference,
    supported_orderings=ORDERINGS,
    options_schema={"pair_threshold": None},
    description="plain Hestenes one-sided Jacobi (recomputed dot products)",
))
register_engine(EngineSpec(
    name="modified",
    fn=_run_modified,
    supported_orderings=ORDERINGS,
    options_schema={"rotation_impl": ROTATION_IMPLS,
                    "track_columns": TRACK_COLUMN_MODES},
    description="Algorithm 1 with covariance caching, sequential order",
))
register_engine(EngineSpec(
    name="blocked",
    fn=_run_blocked,
    supported_orderings=("cyclic",),
    options_schema={"rotation_impl": ROTATION_IMPLS,
                    "track_columns": TRACK_COLUMN_MODES},
    description="hardware-scheduled round-parallel modified algorithm",
))
register_engine(EngineSpec(
    name="vectorized",
    fn=_run_vectorized,
    supported_orderings=ORDERINGS,
    options_schema={"rotation_impl": ROTATION_IMPLS,
                    "block_rounds": _positive_int,
                    "pair_threshold": None,
                    "precision": PRECISIONS,
                    "switch_tol": _positive_float},
    description="round-parallel column-space engine with batched rotations "
                "and fp64/mixed/fp32 precision schedules",
))
register_engine(EngineSpec(
    name="preconditioned",
    fn=_run_preconditioned,
    supported_orderings=("cyclic",),
    options_schema={"pivot": (True, False)},
    instrumented=True,
    description="Householder QR + direct Jacobi on R (Drmac-Veselic)",
))

#: Built-in engine names — the single engine-registry definition the
#: rest of the repository (core dispatch, serve, CLI, tests) consumes.
METHODS = engine_names()
