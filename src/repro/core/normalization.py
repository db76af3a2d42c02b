"""Normalization of the raw quality-FIS output (paper section 2.1.3).

The automatically constructed TSK-FIS is trained toward designated outputs
0 (wrong) and 1 (right) but its mapping "is not restricted to a certain
interval"; residual training error scatters the outputs around 0 and 1.
The normalization function ``L`` maps the raw output onto the quality
interval ``Q = [0, 1]`` or onto the **error state epsilon**:

* values already in ``[0, 1]`` pass through unchanged;
* values in ``[-0.5, 0)`` "belong to zero with an error of mapping" and
  are reflected back into the interval (``x -> -x``);
* values in ``(1, 1.5]`` symmetrically belong to one and are reflected
  (``x -> 2 - x``);
* anything else cannot be mapped in a semantically correct way and
  becomes epsilon.

Note on the paper's formula: the printed third case reads ``1 - x`` for
``1 < x <= 1.5``, which would map onto ``[-0.5, 0)`` — *outside* the
declared codomain ``[0, 1]`` — contradicting both the stated codomain and
the stated semantics ("belongs to one with an error of mapping").  We
implement the reflection about 1 (``2 - x``), the reading consistent with
the text; the discrepancy is documented in DESIGN.md and pinned by tests.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Sentinel for the error state epsilon.  ``None`` at the scalar API level;
#: NaN inside vectorized arrays.
EPSILON: None = None

#: Lower bound below which raw outputs are unmappable.
LOWER_LIMIT = -0.5
#: Upper bound above which raw outputs are unmappable.
UPPER_LIMIT = 1.5


def normalize_scalar(x: float) -> Optional[float]:
    """Apply ``L`` to one raw FIS output.

    Returns a quality in ``[0, 1]`` or ``None`` (epsilon).
    """
    x = float(x)
    if x != x:  # NaN
        return EPSILON
    if 0.0 <= x <= 1.0:
        return x
    if LOWER_LIMIT <= x < 0.0:
        return -x
    if 1.0 < x <= UPPER_LIMIT:
        return 2.0 - x
    return EPSILON


def normalize_array(x: np.ndarray) -> np.ndarray:
    """Vectorized ``L``; epsilon is represented as ``NaN``.

    Use :func:`is_error_state` on the result to locate epsilon entries.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    in_unit = (x >= 0.0) & (x <= 1.0)
    below = (x >= LOWER_LIMIT) & (x < 0.0)
    above = (x > 1.0) & (x <= UPPER_LIMIT)
    out[in_unit] = x[in_unit]
    out[below] = -x[below]
    out[above] = 2.0 - x[above]
    return out


def is_error_state(normalized: Union[float, np.ndarray, None]
                   ) -> Union[bool, np.ndarray]:
    """Epsilon test with an explicit scalar/array contract.

    * Scalar input — ``None`` (the scalar-API epsilon), a float, or a
      0-d array — returns a plain Python :class:`bool`.
    * Array input (1-d or higher) returns a boolean :class:`numpy.ndarray`
      of the same shape, ``True`` where the entry is NaN (the vectorized
      epsilon encoding).

    Earlier versions returned a 0-d ``np.bool_`` for the ``None`` path
    and whatever ``np.isnan`` produced otherwise, so scalar callers got
    a different type depending on which epsilon encoding reached them.
    """
    if normalized is None:
        return True
    mask = np.isnan(np.asarray(normalized, dtype=float))
    if mask.ndim == 0:
        return bool(mask)
    return mask


def mapping_error(x: Union[float, np.ndarray]) -> np.ndarray:
    """Distance the normalization had to move each raw value.

    Zero inside ``[0, 1]``; the reflection distance in the semi-mappable
    bands; ``NaN`` for epsilon values.  This quantifies the "error of
    mapping" the paper describes.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    in_unit = (x >= 0.0) & (x <= 1.0)
    below = (x >= LOWER_LIMIT) & (x < 0.0)
    above = (x > 1.0) & (x <= UPPER_LIMIT)
    out[in_unit] = 0.0
    out[below] = -2.0 * x[below]     # |x - (-x)|
    out[above] = 2.0 * (x[above] - 1.0)
    return out
