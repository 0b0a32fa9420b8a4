"""Model parameters and flat key=value configuration files."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from cyclefield.errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of model parameters.

    All noise scales are amplitudes (not variances) except ``lambda_sq``,
    which is the squared technology stiffness.
    """

    varpi: float = 0.1         # consumption noise scale
    nu: float = 0.1            # capital noise scale
    lambda_sq: float = 400.0   # squared technology stiffness (lambda**2)
    varsigma: float = 0.05     # consumption restoring scale
    delta: float = 0.05        # capital depreciation rate
    r_c: float = 0.05          # consumption discount rate
    epsilon: float = 0.3       # production elasticity of capital
    K_bar: float = 10.0        # capital expansion point
    C_bar: float = 1.0         # consumption anchor
    A0: float = 8.0            # bare technology level
    kappa: float = 0.2         # technology feedback share
    gamma: float = 0.05        # interaction strength
    alpha_laplace: float = 0.2 # Laplace-domain offset
    C0: float = 0.5            # per-unit-time weight offset
    g: float = 0.0             # technology drift rate
    theta_sq: float = 1.0      # intertemporal constraint stiffness (theta**2)
    sigma_sq: float = 1.0      # global constraint relaxation variance
    eta_sq: float = 1.0        # collective-mode variance (eta**2)

    def __post_init__(self):
        # set each field, not vars(self): a materialised __dict__ makes every attribute read slower
        for name, v in _checked({name: getattr(self, name) for name in _FIELD_INDEX}).items():
            object.__setattr__(self, name, v)

    # -- derived quantities -------------------------------------------------

    @property
    def lam(self) -> float:
        """Technology stiffness lambda = sqrt(lambda_sq)."""
        return math.sqrt(self.lambda_sq)

    @property
    def A_bar0(self) -> float:
        """Self-consistent technology level A0 / (1 - kappa)."""
        return self.A0 / (1.0 - self.kappa)

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with ``changes``; only the changed fields are checked, as the constructor checks them."""
        if not changes.keys() <= _FIELD_INDEX.keys():  # the constructor's TypeError
            return ModelParams(**{**self.to_dict(), **changes})
        checked = _checked({k: changes[k] for k in sorted(changes, key=_FIELD_INDEX.get)})
        new, set_field = object.__new__(ModelParams), object.__setattr__
        for name, v in zip(_FIELD_INDEX, _field_values(self)):
            set_field(new, name, checked.get(name, v))
        return new

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_INDEX = {f.name: i for i, f in enumerate(fields(ModelParams))}
_field_values = operator.attrgetter(*_FIELD_INDEX)
_POSITIVE = ("varpi", "nu", "lambda_sq", "delta", "epsilon", "K_bar", "C_bar", "A0", "theta_sq")
_NONNEGATIVE = ("varsigma", "r_c", "kappa", "gamma", "C0", "sigma_sq", "eta_sq")
# the range checks, in the order the constructor reports them: (fields, fails, requirement)
_RANGES = (
    (frozenset(_POSITIVE), lambda x: x <= 0.0, "be > 0"),
    (frozenset(_NONNEGATIVE), lambda x: x < 0.0, "be >= 0"),
    (frozenset(["epsilon"]), lambda x: x >= 1.0, "lie in (0, 1)"),
    (frozenset(["kappa"]), lambda x: x >= 1.0, "lie in [0, 1)"),
)


def _checked(values: dict) -> dict:
    """The given fields, in field order, as floats; raises the constructor's first fault."""
    out = {}
    for name, v in values.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParameterError(f"{name} must be a real number, got {v!r}")
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")
        out[name] = float(v)
    for names, fails, need in _RANGES:  # each over the given fields only, in field order
        for name, x in out.items():
            if name in names and fails(x):
                raise ParameterError(f"{name} must {need}, got {x}")
    return out


def parse_config_text(text: str) -> ModelParams:
    """Parse flat ``key=value`` configuration text into :class:`ModelParams`.

    Blank lines and ``#`` comments are ignored.  Unknown keys are rejected.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_INDEX:
            raise ParameterError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ParameterError(f"line {lineno}: duplicate configuration key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: invalid number for {key}: {val.strip()!r}") from exc
    return ModelParams(**values)


def load_config(path: str) -> ModelParams:
    """Load :class:`ModelParams` from a flat key=value file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read configuration file {path}: {exc}") from exc
    return parse_config_text(text)
