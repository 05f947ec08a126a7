"""Field kinds: what counts as a valid value for a spec field.

Every field of a scenario spec declares its *kind* with :func:`declare`
(a :func:`dataclasses.field` whose metadata carries the kind and its
bounds, choices or type), and the spec's ``__post_init__`` starts with
:func:`validate_fields`: one pass does every type and range check, so
the spec's own hook keeps only its cross-field rules and normalisation.
``None`` is accepted exactly when the field's default is ``None``.
Errors are :class:`~repro.errors.ConfigurationError` naming
``Class.field`` and the value.

The kinds: ``count`` (an ``int`` or ``np.integer``, never a ``bool``),
``real`` (an int or float, numpy's included, never a ``bool``, ``nan``
or ``inf``), ``flag`` (a ``bool``), ``choice`` (one of ``choices``),
``node_ids`` (a sequence of non-negative ``count`` ids), ``spec`` (an
instance of ``type``), ``callable``, ``seed`` (what
:func:`repro.rng.make_rng` takes, never a ``bool``) and ``custom``
(checked by the spec's own ``__post_init__``). ``count`` and ``real``
take inclusive ``low`` / ``high`` and exclusive ``above`` / ``below``
bounds. ``docs/scenarios.md`` tabulates every spec's fields.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ConfigurationError

#: the bounds of a ``count`` / ``real`` field, in checker argument order
BOUNDS = ("low", "high", "above", "below")

_REALS = (int, float, np.integer, np.floating)


def interval(low=None, high=None, above=None, below=None) -> str:
    """The accepted range as interval notation, e.g. ``[0, 1]``."""
    left = (f"[{low}" if low is not None
            else f"({above}" if above is not None else "(-inf")
    right = (f"{high}]" if high is not None
             else f"{below})" if below is not None else "inf)")
    return f"{left}, {right}"


def check_real(value, where: str, low=None, high=None, above=None,
               below=None) -> float:
    """``value`` as a ``float``; :class:`ConfigurationError` naming
    ``where`` when it is a ``bool``, not an int or float (numpy's
    included), not finite, or outside the bounds."""
    # exact floats and ints skip the slower isinstance tests
    if type(value) not in (float, int) and (
        isinstance(value, (bool, np.bool_)) or not isinstance(value, _REALS)
    ) or not math.isfinite(value):
        raise ConfigurationError(
            f"{where} {value!r} is not a finite real number"
        )
    if (
        (low is not None and value < low)
        or (high is not None and value > high)
        or (above is not None and value <= above)
        or (below is not None and value >= below)
    ):
        raise ConfigurationError(
            f"{where} must be in {interval(low, high, above, below)}, "
            f"got {value!r}"
        )
    return float(value)


def check_count(value, where: str, low=None, high=None) -> int:
    """``value`` as an ``int``; :class:`ConfigurationError` naming
    ``where`` when it is not an ``int`` or ``np.integer`` (bools and
    floats included) or lies outside ``[low, high]``."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, (int, np.integer))
    ):
        raise ConfigurationError(f"{where} {value!r} is not an integer")
    if (low is not None and value < low
            or high is not None and value > high):
        raise ConfigurationError(
            f"{where} must be in {interval(low, high)}, got {value!r}"
        )
    return int(value)


def check_node_id(node_id, n: Optional[int] = None) -> int:
    """``node_id`` as an ``int``, or :class:`ConfigurationError` when it
    is not an integer (bools and floats included), is negative or,
    given ``n``, is ``n`` or more. Every node id a caller hands the
    library — crash victims, broadcast origins, probe nodes, leaders —
    goes through here."""
    return check_count(node_id, "node id", 0, None if n is None else n - 1)


def check_seed(seed, where: str = "seed"):
    """``seed`` unchanged when :func:`repro.rng.make_rng` can use it;
    :class:`ConfigurationError` otherwise (a ``bool`` included)."""
    if seed is None or isinstance(
        seed, (np.random.Generator, np.random.SeedSequence)
    ):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(
            f"{where} {seed!r}: unsupported seed type {type(seed).__name__}"
        )
    return seed


def check_choice(value, where: str, choices) -> None:
    """:class:`ConfigurationError` unless ``value`` is one of the
    names in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigurationError(
            f"{where} {value!r} is not one of {tuple(choices)}"
        )


def _check_flag(value, where: str) -> None:
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{where} {value!r} is not a bool")


def _check_node_ids(value, where: str) -> None:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
        raise ConfigurationError(
            f"{where} {value!r} is not a sequence of node ids"
        )
    for index, node_id in enumerate(value):
        check_count(node_id, f"{where}[{index}]", 0)


def _check_spec(value, where: str, expected) -> None:
    if not isinstance(value, expected):
        names = expected if isinstance(expected, tuple) else (expected,)
        raise ConfigurationError(
            f"{where} must be a {' or '.join(cls.__name__ for cls in names)}"
            f", got {value!r}"
        )


def _check_callable(value, where: str) -> None:
    if not callable(value):
        raise ConfigurationError(f"{where} {value!r} is not callable")


#: kind name -> (checker(value, where, *arguments), the metadata keys
#: passed as its arguments); ``custom`` has no checker
CHECKERS = {
    "count": (check_count, ("low", "high")),
    "real": (check_real, BOUNDS),
    "flag": (_check_flag, ()),
    "choice": (check_choice, ("choices",)),
    "node_ids": (_check_node_ids, ()),
    "spec": (_check_spec, ("type",)),
    "callable": (_check_callable, ()),
    "seed": (check_seed, ()),
}

#: every kind a field may declare
KINDS = tuple(CHECKERS) + ("custom",)


def declare(kind: str, default=dataclasses.MISSING, *,
            default_factory=dataclasses.MISSING, **options):
    """A dataclass field of ``kind``; ``options`` are its bounds
    (``count`` / ``real``), ``choices`` (``choice``) or ``type``
    (``spec``)."""
    if kind not in KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    return dataclasses.field(
        default=default, default_factory=default_factory,
        metadata={"kind": kind, **options},
    )


#: per spec class: (field name, "Class.field", checker, arguments,
#: default), built on the first validation
_PLANS: Dict[type, Tuple] = {}


def _plan(cls) -> Tuple:
    """The class's checks; every default is checked here, once, so a
    value that *is* its field's default needs no check (that is also
    why ``None`` passes exactly where it is the default)."""
    plan = []
    for spec_field in dataclasses.fields(cls):
        kind = spec_field.metadata["kind"]
        if kind != "custom":
            check, keys = CHECKERS[kind]
            where = f"{cls.__name__}.{spec_field.name}"
            arguments = tuple(spec_field.metadata.get(key) for key in keys)
            default = spec_field.default
            if default is not dataclasses.MISSING and default is not None:
                check(default, where, *arguments)
            plan.append((spec_field.name, where, check, arguments, default))
    return tuple(plan)


def validate_fields(obj) -> None:
    """Check every declared field of the dataclass instance ``obj``
    against its kind; raise :class:`ConfigurationError` on the first
    bad value."""
    plan = _PLANS.get(type(obj))
    if plan is None:
        plan = _PLANS[type(obj)] = _plan(type(obj))
    for name, where, check, arguments, default in plan:
        value = getattr(obj, name)
        if value is not default:
            check(value, where, *arguments)
