"""Exception types shared across the package."""


class SympinvError(Exception):
    """Base class for all package errors."""


# --- jet arithmetic ---------------------------------------------------------

class JetError(SympinvError):
    pass


class DivisionByZeroJet(JetError):
    """Divisor jet has a (numerically) vanishing constant term."""


class DomainError(JetError):
    """Elementary function applied outside its domain (e.g. log of u <= 0)."""


class BasepointMismatch(JetError):
    """Operands are centered at different basepoints."""


class SingularLinearPart(JetError):
    """Series inversion requested for a map with singular linear part."""


class OrderExhausted(JetError):
    """A derivative was requested beyond the truncation order."""


# --- expressions ------------------------------------------------------------

class ExprError(SympinvError):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownFunction(ExprError):
    pass


class ArityError(ExprError):
    pass


class UnboundVariable(ExprError):
    pass


# --- geometry / frames ------------------------------------------------------

class GeometryError(SympinvError):
    pass


class DegenerateJet(GeometryError):
    """A genericity condition fails at the sample jet."""

    def __init__(self, reason):
        super().__init__(f"degenerate jet: {reason}")
        self.reason = reason


class GraphDegeneracy(GeometryError):
    """Transformed submanifold is not a graph over the chart's independent variables."""


class NormalizationSingular(GeometryError):
    """A frame-normalization equation has no solution at this jet."""


class StepDegenerate(GeometryError):
    def __init__(self, step, detail=""):
        msg = f"canonical frame degenerates at step {step}"
        super().__init__(msg + (f": {detail}" if detail else ""))
        self.step = step


class LagrangianTangent(GeometryError):
    """Tangent plane is Lagrangian; the symplectic split does not exist."""


class DegenerateQ1(GeometryError):
    """The null-normalized quadratic form is degenerate at this jet."""


class SigmaDegenerate(GeometryError):
    """sigma_1(v0_perp) vanishes; the transverse normalization fails."""


class FrameDegeneracy(GeometryError):
    """Constructed derivations are linearly dependent at this jet."""


class WeightNormalizationSingular(GeometryError):
    """A weight-normalizing denominator invariant vanishes at this jet."""


class OnZeroLevelSet(GeometryError):
    """Base invariant 2z - xy vanishes; the scaled generators are undefined."""


class NonFinite(GeometryError):
    """A signature component at this sample is not finite (inf or NaN)."""


# --- group actions / sampling ----------------------------------------------

class GroupError(SympinvError):
    pass


class DegreeError(GroupError):
    """Hamiltonian polynomial has illegal (weighted) degree."""


class NonGenericSample(GroupError):
    """Orbit rank did not stabilize across resampled jets."""


# --- signatures / CLI -------------------------------------------------------

class AllSamplesDegenerate(SympinvError):
    """Every sample point hit a degenerate locus; no signature cloud built."""


class IncomparableClouds(SympinvError):
    """Signature clouds were built from different generator recipes."""


class JobError(SympinvError):
    """Job file fails to parse or validate."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
