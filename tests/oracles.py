"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the package's own computational paths:
tail probabilities and cell centroids come from adaptive quadrature, inverses and slice maxima
from bisection, information sums from explicit loops with a local
Hamming-weight kernel, and integer programs from exhaustive enumeration.
Grid peaks come from an explicit neighbour scan, and emitted tables are
read back by a parser of their own and written by a per-cell formatter.
"""

import csv
import itertools
import json
import math
import re

import numpy as np
from scipy import integrate

from hybriddet.experiments import Table

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def upper_tail_quad(x: float) -> float:
    """P(X > x) by adaptive quadrature of the density."""
    if x == -math.inf:
        return 1.0
    if x == math.inf:
        return 0.0
    value, _ = integrate.quad(normal_pdf, x, math.inf)
    return value


def upper_tail_inverse_bisect(p: float, lo: float = -12.0, hi: float = 12.0) -> float:
    """Solve upper_tail(x) = p by bisection (upper tail is decreasing)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if upper_tail_quad(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cell_centroid_quad(lo: float, hi: float) -> float:
    """E[X | lo <= X < hi] for a standard normal X, by quadrature.

    The density is integrated relative to its value at a reference point
    of the cell (the midpoint, or the finite edge of a tail cell), so the
    integrands stay of order one however narrow or remote the cell is.
    """
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo) or math.isinf(hi):
        edge, sign = (hi, -1.0) if math.isinf(lo) else (lo, 1.0)
        # x = edge + sign * s with s >= 0; weight exp(-x**2/2 + edge**2/2).
        weight = lambda s: math.exp(-sign * edge * s - 0.5 * s * s)
        mass, _ = integrate.quad(weight, 0.0, math.inf, **opts)
        moment, _ = integrate.quad(lambda s: s * weight(s), 0.0, math.inf, **opts)
        return edge + sign * moment / mass
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # x = mid + half * u with |u| <= 1, folded onto u >= 0 so that the odd
    # part of the weight exp(-x**2/2 + mid**2/2) does not cancel.
    a = mid * half
    if a == 0.0:
        return mid
    envelope = lambda u: math.exp(-0.5 * (half * u) ** 2)
    mass, _ = integrate.quad(lambda u: envelope(u) * math.cosh(a * u), 0.0, 1.0, **opts)
    moment, _ = integrate.quad(lambda u: u * envelope(u) * math.sinh(a * u), 0.0, 1.0, **opts)
    return mid - half * moment / mass


def codes_for(bits: int) -> list[int]:
    """Codeword of each level, indexed by ``level - 1``: natural binary, so
    level ``i`` sends the binary digits of ``i - 1``."""
    return list(range(2**bits))


def quantized_fi_oracle(thresholds, p_e: float, sigma_n2: float) -> float:
    """Single-sensor information sum via explicit loops and quadrature tails."""
    sigma = math.sqrt(sigma_n2)
    edges = [-math.inf] + [float(t) for t in thresholds] + [math.inf]
    k = len(edges) - 1
    bits = int(round(math.log2(k)))
    assert 2**bits == k
    probs = [
        upper_tail_quad(edges[j] / sigma) - upper_tail_quad(edges[j + 1] / sigma)
        for j in range(k)
    ]
    dens = [0.0 if abs(e) == math.inf else normal_pdf(e / sigma) for e in edges]
    scores = [sigma_n2 * (dens[j] - dens[j + 1]) for j in range(k)]
    codes = codes_for(bits)
    total = 0.0
    for i in range(k):
        num = 0.0
        den = 0.0
        for j in range(k):
            dist = bin(codes[i] ^ codes[j]).count("1")
            g = p_e**dist * (1.0 - p_e) ** (bits - dist)
            num += g * scores[j]
            den += g * probs[j]
        if den > 0.0:
            total += num * num / den
    return total / sigma**6


def received_information_sum(probs, scores, kernel) -> tuple:
    """``detection.received_information`` with its channel sums written as
    Python ``sum``s of one product per sent level, starting from 0."""
    levels = range(kernel.shape[-1])
    received = sum(probs[..., j, None] * kernel[..., j] for j in levels)
    numerators = sum(scores[..., j, None] * kernel[..., j] for j in levels)
    live = received > 0.0
    terms = np.where(live, numerators**2 / np.where(live, received, 1.0), 0.0)
    return received, numerators, terms.sum(axis=-1)


def diagonal_profile(t: float, p_e: float) -> float:
    """Unit-noise 2-bit information on the symmetric slice, ``I(-t, 0, t)``."""
    return quantized_fi_oracle((-t, 0.0, t), p_e, 1.0)


def diagonal_argmax(lo: float, hi: float, p_e: float) -> float:
    """Stationary point of ``diagonal_profile`` in ``[lo, hi]``; see ``slope_root``."""
    return slope_root(lambda t: diagonal_profile(t, p_e), lo, hi)


def symmetric_face_profile(t: float, p_e: float) -> float:
    """Unit-noise 3-bit information on the face of levels {1, 2, 4, 8} at edges ``(-t, 0, t)``.

    Those levels send 000, 001, 011 and 111.
    """
    return quantized_fi_oracle((-t, 0.0, 0.0, t, t, t, t), p_e, 1.0)


def symmetric_face_argmax(lo: float, hi: float, p_e: float) -> float:
    """Stationary point of ``symmetric_face_profile`` in ``[lo, hi]``; see ``slope_root``."""
    return slope_root(lambda t: symmetric_face_profile(t, p_e), lo, hi)


def slope_root(profile, lo: float, hi: float) -> float:
    """Stationary point of a one-dimensional profile in ``[lo, hi]``.

    Bisection on the sign of a central difference; the profile must rise
    at ``lo`` and fall at ``hi``.
    """
    h = 1e-5

    def slope(t: float) -> float:
        return (profile(t + h) - profile(t - h)) / (2.0 * h)

    if not (slope(lo) > 0.0 > slope(hi)):
        raise ValueError(f"[{lo}, {hi}] does not bracket a maximum")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def enumerate_ilp(cost, eq_matrix, eq_rhs, lower, upper, atol=1e-9):
    """Exhaustive minimum of ``cost @ x`` over the integer box meeting ``Ax=b``.

    Returns ``(x, objective)`` or ``(None, None)`` when empty.  Only usable
    when the box is small.
    """
    cost = np.asarray(cost, dtype=float)
    A = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.asarray(eq_rhs, dtype=float)
    ranges = [range(int(lo), int(up) + 1) for lo, up in zip(lower, upper)]
    best_x, best_v = None, None
    for x in itertools.product(*ranges):
        xv = np.array(x, dtype=float)
        if np.max(np.abs(A @ xv - b)) > atol:
            continue
        v = float(cost @ xv)
        if best_v is None or v < best_v - 1e-15:
            best_x, best_v = np.array(x), v
    return best_x, best_v


def central_difference(fun, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return grad


def find_local_maxima(values: np.ndarray) -> list[tuple[int, int]]:
    """Grid cells strictly greater than every finite 8-neighbor.

    NaN cells are skipped and never count as neighbors; boundary cells
    compare against their existing neighbors only.
    """
    rows, cols = values.shape
    maxima = []
    for i in range(rows):
        for j in range(cols):
            v = values[i, j]
            if not np.isfinite(v):
                continue
            is_max = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < rows and 0 <= nj < cols:
                        nb = values[ni, nj]
                        if np.isfinite(nb) and nb >= v:
                            is_max = False
                            break
                if not is_max:
                    break
            if is_max:
                maxima.append((i, j))
    return maxima


_INT_RE = re.compile(r"^[+-]?\d+$")


def _text_to_cell(text: str):
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def load_table(path, fmt: str) -> Table:
    """Inverse of :func:`hybriddet.experiments.emit`."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [tuple(_text_to_cell(c) for c in row) for row in reader]
        return Table(tuple(header), rows)
    if fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("schema_version") != 1:
            raise ValueError("unsupported schema version")
        return Table(tuple(payload["columns"]), [tuple(r) for r in payload["rows"]])
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def _cell_to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("boolean cells are not supported")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_per_cell(table: Table, fmt: str, path) -> None:
    """:func:`hybriddet.experiments.emit` with every cell converted by hand:
    ``None`` to "" or ``null``, an int by ``str``, a float by ``repr``."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_cell_to_text(v) for v in row])
        return
    if fmt == "json":
        def cell(v):
            if v is None:
                return None
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            return str(v)

        payload = {
            "schema_version": 1,
            "columns": list(table.columns),
            "rows": [[cell(v) for v in row] for row in table.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def faces_loop(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The face design's ``(used, slots)`` by one search per face: every set
    of used levels, by size and then in lexicographic order, keeping of each
    mirror pair the lexicographically larger level tuple."""
    levels = 2**bits
    used, slots = [], []
    for size in range(1, levels + 1):
        for face in itertools.combinations(range(1, levels + 1), size):
            if face < tuple(sorted(levels + 1 - level for level in face)):
                continue
            below = np.searchsorted(face, np.arange(1, levels), side="right")
            slots.append(np.where(below < size, below, levels))
            used.append(np.isin(np.arange(1, levels + 1), face))
    return np.array(used), np.array(slots)
