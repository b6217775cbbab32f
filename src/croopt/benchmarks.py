"""The 24-function shifted/rotated benchmark suite.

Each instance binds a base function to a dimension, box bounds of
[-100, 100] per element, a shift vector o, an orthogonal rotation matrix M
(identity where the function is unrotated), and a fixed scale factor. The
evaluation point is mapped by z = M(x - o) * scale (f13/f14 skip the shift)
before the base formula is applied. All global optima sit at value 0, up to
the truncated Schwefel 2.26 constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ObjectiveSpec, _is_count
from .errors import DimensionMismatch, FormatError

DEFAULT_BOUND = 100.0
#: Shifts are drawn inside [-80, 80] so every shifted optimum stays strictly
#: interior to the box for every scale factor in the table.
SHIFT_ENVELOPE = 80.0
DEFAULT_TRANSFORM_SEED = 12345

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# base functions (operate on the transformed vector z)

@cache
def _one_based(n):
    """The read-only vector 1.0, 2.0, ..., n, built once per length."""
    index = np.arange(1, n + 1, dtype=float)
    index.flags.writeable = False
    return index


def sphere(z):
    # ndarray.dot makes the BLAS call `@` makes, with the same bits.
    return float(z.dot(z))


def schwefel_1_2(z):
    # Diagonally weighted sphere: sum_i i * z_i^2. The double sum's inner
    # index runs over the outer variable, which is what collapses it.
    return float((_one_based(z.shape[0]) * z * z).sum())


def schwefel_2_21(z):
    return float(np.abs(z).max())


def schwefel_2_22(z):
    a = np.abs(z)
    return float(a.sum() + a.prod())


def rosenbrock(z):
    return float((100.0 * (z[:-1] ** 2 - z[1:]) ** 2 + (z[:-1] - 1.0) ** 2).sum())


def discus(z):
    return float(1e6 * z[0] ** 2 + (z[1:] ** 2).sum())


def ackley(z):
    n = z.shape[0]
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt((z * z).sum() / n))
        - np.exp(np.cos(_TWO_PI * z).sum() / n)
        + 20.0
        + np.e
    )


def schwefel_2_26(z):
    return float(418.9829 * z.shape[0] - (z * np.sin(np.sqrt(np.abs(z)))).sum())


def rastrigin(z):
    return float((z * z - 10.0 * np.cos(_TWO_PI * z) + 10.0).sum())


def griewank(z):
    # Product divisor is the 1-based index itself, not its square root.
    i = _one_based(z.shape[0])
    return float((z * z).sum() / 4000.0 - np.cos(z / i).prod() + 1.0)


def levy(z):
    y = 1.0 + 0.25 * (z + 1.0)
    head = np.sin(np.pi * y[0]) ** 2
    body = ((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(y[1:]) ** 2)).sum()
    tail = (y[-1] - 1.0) ** 2 * (1.0 + np.sin(_TWO_PI * y[-1]) ** 2)
    return float(head + body + tail)


def u_penalty(z, a):
    """Boundary penalty: 100(|z|-a)^4 outside [-a, a], zero inside."""
    z = np.asarray(z, dtype=float)
    if np.abs(z).max() <= a:  # the formula's own 0.0; NaN falls through to it
        return 0.0
    over = np.maximum(z - a, 0.0)
    under = np.maximum(-z - a, 0.0)
    return float((100.0 * (over**4.0 + under**4.0)).sum())


def penalized_1(z):
    head = np.sin(3.0 * np.pi * z[0]) ** 2
    body = ((z[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * z[1:]) ** 2)).sum()
    tail = (z[-1] - 1.0) ** 2 * (1.0 + np.sin(_TWO_PI * z[-1]) ** 2)
    return float(0.1 * (head + body + tail) + u_penalty(z, 5.0))


def penalized_2(z):
    y = 1.0 + 0.25 * (z + 1.0)
    head = 10.0 * np.sin(np.pi * y[0]) ** 2
    body = ((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2)).sum()
    tail = (y[-1] - 1.0) ** 2
    return float(np.pi / z.shape[0] * (head + body + tail) + u_penalty(z, 10.0))


def _check_dimension(dim):
    """``dim`` as an int if it is a positive integer, else DimensionMismatch."""
    if not _is_count(dim):
        raise DimensionMismatch(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class FunctionDef:
    id: int
    base: Callable[[np.ndarray], float]
    #: Where the base function attains 0, per transformed coordinate.
    optimum: float
    shifted: bool
    rotated: bool
    scale: float
    name: str


FUNCTION_TABLE = (
    # id, base, optimum, shifted, rotated, scale, name
    FunctionDef(1, sphere, 0.0, True, False, 1.0, "Shifted Sphere"),
    FunctionDef(2, schwefel_1_2, 0.0, True, False, 1.0, "Shifted Schwefel 1.2"),
    FunctionDef(3, schwefel_1_2, 0.0, True, True, 1.0, "Shifted Rotated Schwefel 1.2"),
    FunctionDef(4, schwefel_2_21, 0.0, True, False, 1.0, "Shifted Schwefel 2.21"),
    FunctionDef(5, schwefel_2_21, 0.0, True, True, 1.0, "Shifted Rotated Schwefel 2.21"),
    FunctionDef(6, schwefel_2_22, 0.0, True, False, 0.1, "Shifted Schwefel 2.22"),
    FunctionDef(7, schwefel_2_22, 0.0, True, True, 0.1, "Shifted Rotated Schwefel 2.22"),
    FunctionDef(8, rosenbrock, 1.0, True, False, 0.3, "Shifted Rosenbrock"),
    FunctionDef(9, rosenbrock, 1.0, True, True, 0.3, "Shifted Rotated Rosenbrock"),
    FunctionDef(10, discus, 0.0, True, False, 1.0, "Shifted Discus"),
    FunctionDef(11, ackley, 0.0, True, False, 0.32, "Shifted Ackley"),
    FunctionDef(12, ackley, 0.0, True, True, 0.32, "Shifted Rotated Ackley"),
    FunctionDef(13, schwefel_2_26, 420.9687, False, False, 5.0, "Schwefel 2.26"),
    FunctionDef(14, schwefel_2_26, 420.9687, False, True, 5.0, "Rotated Schwefel 2.26"),
    FunctionDef(15, rastrigin, 0.0, True, False, 0.0512, "Shifted Rastrigin"),
    FunctionDef(16, rastrigin, 0.0, True, True, 0.0512, "Shifted Rotated Rastrigin"),
    FunctionDef(17, griewank, 0.0, True, False, 6.0, "Shifted Griewank"),
    FunctionDef(18, griewank, 0.0, True, True, 6.0, "Shifted Rotated Griewank"),
    FunctionDef(19, levy, -1.0, True, False, 0.1, "Shifted Levy"),
    FunctionDef(20, levy, -1.0, True, True, 0.1, "Shifted Rotated Levy"),
    FunctionDef(21, penalized_1, 1.0, True, False, 0.5, "Shifted Penalized 1"),
    FunctionDef(22, penalized_1, 1.0, True, True, 0.5, "Shifted Rotated Penalized 1"),
    FunctionDef(23, penalized_2, -1.0, True, False, 0.5, "Shifted Penalized 2"),
    FunctionDef(24, penalized_2, -1.0, True, True, 0.5, "Shifted Rotated Penalized 2"),
)

_DEFS_BY_ID = {d.id: d for d in FUNCTION_TABLE}


def parse_func_id(func_id):
    """Accept 7, '7' or 'f7'; returns the integer id."""
    number = func_id
    if isinstance(func_id, str):
        try:
            number = int(func_id.strip().lower().removeprefix("f"))
        except ValueError:
            number = None
    if not (_is_count(number) and number in _DEFS_BY_ID):
        raise FormatError(f"not a function id in f1..f{len(_DEFS_BY_ID)}: {func_id!r}")
    return int(number)


@dataclass(eq=False)
class TransformData:
    """Shift, rotation, and scale bound to one benchmark instance."""

    shift: np.ndarray
    rotation: np.ndarray
    scale: float


@dataclass(eq=False)
class BenchmarkInstance:
    func_id: int
    transform: TransformData
    # Derived from the table row and the shift, so evaluation reads plain fields.
    base: Callable[[np.ndarray], float] = field(init=False)
    shifted: bool = field(init=False)
    rotated: bool = field(init=False)
    dimension: int = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        fdef = _DEFS_BY_ID[self.func_id]
        self.base, self.shifted, self.rotated = fdef.base, fdef.shifted, fdef.rotated
        self.dimension = self.transform.shift.shape[0]
        self.lower = np.full(self.dimension, -DEFAULT_BOUND)
        self.upper = np.full(self.dimension, DEFAULT_BOUND)

    @property
    def label(self):
        return f"f{self.func_id}"


def _random_orthogonal(dim, rng):
    # QR of a Gaussian matrix with the sign fix that makes Q Haar-distributed
    # and the factorization unique.
    gauss = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def generate_transform(base_seed, func_id, dim):
    """Deterministic transform data for (base_seed, function, dimension)."""
    if not _is_count(base_seed, 0):
        raise FormatError(f"transform seed must be an integer >= 0, got {base_seed!r}")
    func_id = parse_func_id(func_id)
    fdef = _DEFS_BY_ID[func_id]
    rng = np.random.default_rng([int(base_seed), func_id, int(dim)])
    if fdef.shifted:
        shift = rng.uniform(-SHIFT_ENVELOPE, SHIFT_ENVELOPE, dim)
    else:
        shift = np.zeros(dim)
    if fdef.rotated:
        rotation = _random_orthogonal(dim, rng)
    else:
        rotation = np.eye(dim)
    return TransformData(shift=shift, rotation=rotation, scale=fdef.scale)


def make_instance(func_id, dim, transform_seed=DEFAULT_TRANSFORM_SEED,
                  transform=None):
    """Build one benchmark instance; transform data is generated unless given."""
    func_id = parse_func_id(func_id)
    dim = _check_dimension(dim)
    fdef = _DEFS_BY_ID[func_id]
    if transform is None:
        transform = generate_transform(transform_seed, func_id, dim)
    if not all(isinstance(a, np.ndarray) and a.dtype.kind in "fiu"
               for a in (transform.shift, transform.rotation)):
        raise FormatError(f"transform data for f{func_id} must be real numpy arrays")
    if transform.shift.shape != (dim,):
        raise DimensionMismatch(
            f"shift has length {transform.shift.shape[0]}, expected {dim}"
        )
    if transform.rotation.shape != (dim, dim):
        raise DimensionMismatch(
            f"rotation is {transform.rotation.shape}, expected ({dim}, {dim})"
        )
    if not (np.isfinite(transform.shift).all() and np.isfinite(transform.rotation).all()):
        raise FormatError(f"transform data for f{func_id} is not finite")
    residual = np.max(np.abs(transform.rotation.T @ transform.rotation - np.eye(dim)))
    if residual > 1e-10:
        raise FormatError(f"rotation for f{func_id} is not orthogonal ({residual:.2e})")
    if transform.scale != fdef.scale:
        raise FormatError(
            f"f{func_id} requires scale {fdef.scale}, got {transform.scale}"
        )
    return BenchmarkInstance(func_id, transform)


def evaluate_benchmark(inst, x):
    """Apply the instance's transform and base formula at ``x`` (pure)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.dimension,):
        raise DimensionMismatch(
            f"point has shape {x.shape}, expected ({inst.dimension},)"
        )
    return _bind(inst)(x)


def _bind(inst):
    """The instance's evaluation with its transform read once, unchecked."""
    base, transform = inst.base, inst.transform
    shift, rotation, scale = transform.shift, transform.rotation, transform.scale
    shifted, rotated, scaled = inst.shifted, inst.rotated, scale != 1.0

    def evaluate(x):
        z = x - shift if shifted else x
        if rotated:
            z = rotation.dot(z)
        if scaled:
            z = z * scale
        return base(z)

    return evaluate


def optimal_point(inst):
    """The constructed global-optimum location (pre-image of the base optimum).

    For rotated instances this applies the transposed rotation, so the point
    may fall outside the search box for large base optima; the evaluation is
    still well-defined.
    """
    target = np.full(inst.dimension, _DEFS_BY_ID[inst.func_id].optimum)
    if inst.rotated:
        target = inst.transform.rotation.T @ target
    point = target / inst.transform.scale
    if inst.shifted:
        point = point + inst.transform.shift
    return point


def as_objective(inst):
    """Wrap an instance as the objective contract the reactor consumes.

    Its ``evaluate`` trusts ``x`` to be a float64 vector of the instance's
    dimension, as the run hands it; :func:`evaluate_benchmark` is the
    checked entry.
    """
    return ObjectiveSpec(lower=inst.lower, upper=inst.upper, evaluate=_bind(inst))


# ---------------------------------------------------------------------------
# raw transform files

def _read_numbers(path, count):
    """The first ``count`` numbers of a raw whitespace-separated file."""
    tokens = Path(path).read_text().split()
    if len(tokens) < count:
        raise FormatError(f"{path}: found {len(tokens)} values, need {count}")
    try:
        return np.array([float(t) for t in tokens[:count]])
    except ValueError as exc:
        raise FormatError(f"{path}: bad number: {exc}") from None


def instance_from_cec_dir(func_id, dim, data_dir):
    """Build an instance from raw files f{k}_shift.txt / f{k}_M.txt (row-major)."""
    func_id = parse_func_id(func_id)
    dim = _check_dimension(dim)
    fdef = _DEFS_BY_ID[func_id]
    data_dir = Path(data_dir)
    shift = np.zeros(dim)
    if fdef.shifted:
        shift = _read_numbers(data_dir / f"f{func_id}_shift.txt", dim)
    rotation = np.eye(dim)
    if fdef.rotated:
        values = _read_numbers(data_dir / f"f{func_id}_M.txt", dim * dim)
        rotation = values.reshape(dim, dim)
    transform = TransformData(shift=shift, rotation=rotation, scale=fdef.scale)
    return make_instance(func_id, dim, transform=transform)
