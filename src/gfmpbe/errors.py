"""Exception types shared across the package."""

from __future__ import annotations


class GfmpbeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GfmpbeError):
    """Invalid parameter values or inconsistent configuration."""


class ParseError(ConfigError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(ParseError):
    """Malformed interface interchange document or binary field file."""


class DomainError(GfmpbeError):
    """A point fell outside the region where an operation is defined."""


class SingularityError(GfmpbeError):
    """Evaluation requested too close to a point-charge center."""


class AssemblyError(GfmpbeError):
    """Inconsistent interface data encountered while building operators."""


class NumericalError(GfmpbeError):
    """A numerical kernel failed: a zero pivot in a linear solve, or a
    non-finite field entering the nonlinear substep."""


class DivergenceError(GfmpbeError):
    """The pseudo-time iteration produced a non-finite or runaway field; t and
    dt, when given, are the time reached by the failing step and its size,
    and max_abs_u the largest |u| of that step's field, NaN entries left
    out.  Pickling rebuilds the error from its constructor arguments."""

    def __init__(self, message: str, step: int, t=None, dt=None, max_abs_u=None):
        where = f"step {step}" if t is None else f"step {step}, t={t:g}, dt={dt:g}"
        if max_abs_u is not None:
            where += f", max|u|={max_abs_u:g}"
        super().__init__(f"{message} ({where})")
        self._message = message
        self.step, self.t, self.dt, self.max_abs_u = step, t, dt, max_abs_u

    def __reduce__(self):
        args = (self._message, self.step, self.t, self.dt, self.max_abs_u)
        return type(self), args


class InitializationError(DivergenceError):
    """The linearized steady-state solve that builds an initial condition
    diverged or missed its tolerance; step is its CG iteration count."""
