"""Helpers for mutating gene attributes — scalar and batched.

Kept as plain functions (no descriptor machinery): each takes the RNG and
the relevant config knobs explicitly so the call sites in
:mod:`repro.neat.genes` read as a direct transcription of the NEAT update
rules.

Two families share one parameter scheme (:func:`float_mutation_params`):

* ``mutate_float`` / ``mutate_bool`` — one gene at a time through
  ``random.Random`` (the bit-exact paper reference).
* ``mutate_float_array`` / ``mutate_bool_array`` — a whole brood's
  attribute vector at once through a seeded ``numpy.random.Generator``
  (the vectorized genetics engine, see ``docs/genetics.md``). Same
  marginal distributions, different draw economy — the batched variants
  are *not* stream-compatible with the scalar ones.
"""

from __future__ import annotations

import random
from math import cos, log, pi, sin, sqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.neat.config import NEATConfig


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    return max(low, min(high, value))


def new_float(
    rng: random.Random, mean: float, stdev: float, low: float, high: float
) -> float:
    """Draw a fresh attribute value from a clamped Gaussian."""
    return clamp(rng.gauss(mean, stdev), low, high)


def gaussians(rng: random.Random, count: int) -> list[float]:
    """``count`` standard normals, drawn exactly as ``count`` successive
    ``rng.gauss(0.0, 1.0)`` calls draw them.

    Replays ``random.Random.gauss``'s Box-Muller pairs inline (two
    ``random()`` draws give a cos/sin pair; a pending ``gauss_next`` is
    consumed first and an odd count leaves one pending), so both the
    values and ``rng``'s state afterwards match the one-call-at-a-time
    stream. ``mean + z * stdev`` on each value is then bit-for-bit what
    ``rng.gauss(mean, stdev)`` returns.
    """
    normals: list[float] = []
    if count > 0 and rng.gauss_next is not None:
        normals.append(rng.gauss_next)
        rng.gauss_next = None
        count -= 1
    draw = rng.random
    two_pi = 2.0 * pi
    for _ in range((count + 1) >> 1):
        x2pi = draw() * two_pi
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        normals += (cos(x2pi) * g2rad, sin(x2pi) * g2rad)
    if count & 1:
        rng.gauss_next = normals.pop()
    return normals


def new_floats(
    normals, mean: float, stdev: float, low: float, high: float
) -> list[float]:
    """:func:`new_float` over a column of :func:`gaussians` draws."""
    values = []
    append = values.append
    for z in normals:
        value = mean + z * stdev
        # strictly inside the bounds ``clamp`` returns ``value`` itself;
        # anything else (a bound, beyond it, NaN) goes through clamp
        append(value if low < value < high else clamp(value, low, high))
    return values


def mutate_float(
    value: float,
    rng: random.Random,
    *,
    mutate_rate: float,
    replace_rate: float,
    mutate_power: float,
    init_mean: float,
    init_stdev: float,
    low: float,
    high: float,
) -> float:
    """Apply the NEAT float-attribute update.

    With probability ``mutate_rate`` the value is perturbed by zero-mean
    Gaussian noise of ``mutate_power``; with probability ``replace_rate``
    (evaluated next, on the residual probability mass) it is replaced by a
    fresh draw; otherwise it is unchanged.
    """
    r = rng.random()
    if r < mutate_rate:
        return clamp(value + rng.gauss(0.0, mutate_power), low, high)
    if r < mutate_rate + replace_rate:
        return new_float(rng, init_mean, init_stdev, low, high)
    return value


def mutate_bool(value: bool, rng: random.Random, mutate_rate: float) -> bool:
    """Flip a boolean attribute to a random value with ``mutate_rate``."""
    if mutate_rate > 0 and rng.random() < mutate_rate:
        return rng.random() < 0.5
    return value


def float_mutation_params(config: "NEATConfig", name: str) -> dict:
    """The mutate/replace/clamp knobs for float attribute ``name``.

    Config fields follow the ``<name>_mutate_rate`` naming scheme, so the
    scalar and batched mutation paths (and gene initialisation) resolve
    the same parameter set from one place.
    """
    return {
        "mutate_rate": getattr(config, f"{name}_mutate_rate"),
        "replace_rate": getattr(config, f"{name}_replace_rate"),
        "mutate_power": getattr(config, f"{name}_mutate_power"),
        "init_mean": getattr(config, f"{name}_init_mean"),
        "init_stdev": getattr(config, f"{name}_init_stdev"),
        "low": getattr(config, f"{name}_min"),
        "high": getattr(config, f"{name}_max"),
    }


def mutate_float_array(
    values: "np.ndarray",
    rng: "np.random.Generator",
    *,
    mutate_rate: float,
    replace_rate: float,
    mutate_power: float,
    init_mean: float,
    init_stdev: float,
    low: float,
    high: float,
) -> "np.ndarray":
    """Batched :func:`mutate_float` over a whole attribute vector.

    One uniform draw per element selects perturb / replace / keep exactly
    as the scalar rule does; the Gaussian draws are made for every
    element (instead of lazily per selected gene) so the update is three
    vectorized passes regardless of the rates.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    r = rng.random(values.shape)
    perturbed = np.clip(
        values + rng.normal(0.0, mutate_power, values.shape), low, high
    )
    fresh = np.clip(
        rng.normal(init_mean, init_stdev, values.shape), low, high
    )
    out = values.copy()
    perturb_mask = r < mutate_rate
    replace_mask = ~perturb_mask & (r < mutate_rate + replace_rate)
    out[perturb_mask] = perturbed[perturb_mask]
    out[replace_mask] = fresh[replace_mask]
    return out


def mutate_bool_array(
    values: "np.ndarray",
    rng: "np.random.Generator",
    mutate_rate: float,
) -> "np.ndarray":
    """Batched :func:`mutate_bool` over a whole flag vector."""
    import numpy as np

    values = np.asarray(values, dtype=bool)
    if mutate_rate <= 0:
        return values.copy()
    flip = rng.random(values.shape) < mutate_rate
    resampled = rng.random(values.shape) < 0.5
    return np.where(flip, resampled, values)
