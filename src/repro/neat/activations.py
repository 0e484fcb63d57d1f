"""Node activation functions.

NEAT genomes may evolve the activation of each node; the registry maps the
string stored in the gene to a callable. All functions accept and return a
single float and are bounded (or clamped) to keep recurrent-free evaluation
numerically safe.
"""

from __future__ import annotations

import math
from typing import Callable

try:  # numpy is optional: the scalar interpreter never needs it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

ActivationFn = Callable[[float], float]


def sigmoid_activation(z: float) -> float:
    """Steepened sigmoid used in the original NEAT paper, range (0, 1)."""
    z = max(-60.0, min(60.0, 4.9 * z))
    return 1.0 / (1.0 + math.exp(-z))


def tanh_activation(z: float) -> float:
    z = max(-60.0, min(60.0, 2.5 * z))
    return math.tanh(z)


def relu_activation(z: float) -> float:
    return z if z > 0.0 else 0.0


def identity_activation(z: float) -> float:
    return z


def clamped_activation(z: float) -> float:
    return max(-1.0, min(1.0, z))


def gauss_activation(z: float) -> float:
    z = max(-3.4, min(3.4, z))
    return math.exp(-5.0 * z * z)


def sin_activation(z: float) -> float:
    z = max(-60.0, min(60.0, 5.0 * z))
    return math.sin(z)


def abs_activation(z: float) -> float:
    return abs(z)


ACTIVATIONS: dict[str, ActivationFn] = {
    "sigmoid": sigmoid_activation,
    "tanh": tanh_activation,
    "relu": relu_activation,
    "identity": identity_activation,
    "clamped": clamped_activation,
    "gauss": gauss_activation,
    "sin": sin_activation,
    "abs": abs_activation,
}


def get_activation(name: str) -> ActivationFn:
    """Look up an activation by name, raising with the known set on error."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(
            f"unknown activation {name!r}; known: {known}"
        ) from None


# -- vectorized variants (batched inference engine) ---------------------------
#
# Each kernel mirrors its scalar twin above element-wise, including the
# clamping constants, so the batched engines reproduce the interpreter's
# numerics to float64 rounding. Kernels overwrite their float64 argument
# (``out=``) and return it: a forward pass allocates nothing per
# activation. They call ufuncs only — ``np.clip``'s Python wrapper costs
# more than the clamp itself on a serving batch, and ``maximum`` then
# ``minimum`` is how the clip ufunc orders the bounds, so the results
# are bit-identical to it (NaN included). A bound whose removal cannot
# change a single output bit is dropped; each drop says why, and the
# tests hold every kernel bit-identical to the clip-based formulas.

def _clip(z, low, high):
    _np.maximum(z, low, out=z)
    return _np.minimum(z, high, out=z)


def _batched_sigmoid(z):
    # 1 / (1 + exp(-clip(4.9z, -60, 60))), negated before the clamp
    # (exact: rounding and the bounds are sign-symmetric). Past the
    # lower bound exp() is below exp(-60) < 2**-53, so 1 + exp(...)
    # rounds to 1.0 either way: only the upper bound is live
    _np.multiply(z, -4.9, out=z)
    _np.minimum(z, 60.0, out=z)
    _np.exp(z, out=z)
    _np.add(z, 1.0, out=z)
    return _np.divide(1.0, z, out=z)


def _batched_tanh(z):
    # tanh rounds to exactly +-1.0 from |x| > 19.1, so the scalar
    # twin's clamp to +-60 never changes a bit
    _np.multiply(z, 2.5, out=z)
    return _np.tanh(z, out=z)


def _batched_relu(z):
    return _np.maximum(z, 0.0, out=z)


def _batched_identity(z):
    return z


def _batched_clamped(z):
    return _clip(z, -1.0, 1.0)


def _batched_gauss(z):
    _clip(z, -3.4, 3.4)
    # (-5z)z, in the scalar twin's order; the one temporary is -5z
    _np.multiply(_np.multiply(z, -5.0), z, out=z)
    return _np.exp(z, out=z)


def _batched_sin(z):
    _np.multiply(z, 5.0, out=z)
    return _np.sin(_clip(z, -60.0, 60.0), out=z)


def _batched_abs(z):
    return _np.abs(z, out=z)


#: name -> in-place kernel over float64 arrays (same keys as
#: :data:`ACTIVATIONS`; the tests assert the registries stay in sync)
BATCHED_ACTIVATIONS: dict[str, Callable] = {
    "sigmoid": _batched_sigmoid,
    "tanh": _batched_tanh,
    "relu": _batched_relu,
    "identity": _batched_identity,
    "clamped": _batched_clamped,
    "gauss": _batched_gauss,
    "sin": _batched_sin,
    "abs": _batched_abs,
}


def get_batched_activation(name: str) -> Callable:
    """Vectorized activation by name (requires numpy)."""
    if _np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError("numpy is required for the batched backend")
    try:
        return BATCHED_ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(BATCHED_ACTIVATIONS))
        raise ValueError(
            f"unknown activation {name!r}; known: {known}"
        ) from None
