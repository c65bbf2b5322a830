"""Exception taxonomy shared by all modules.

Every error that a caller might want to dispatch on (CLI exit codes, retry
loops, certificate handling) gets its own class.  Anything not listed here is
a plain bug and is allowed to surface as ValueError/ZeroDivisionError.
"""


class HyperrankError(Exception):
    pass


# --- exact algebra ---------------------------------------------------------

class BothZero(HyperrankError):
    """gcd of two zero polynomials."""


class ZeroPolynomial(HyperrankError):
    pass


class NotCoprime(HyperrankError):
    """Hensel input factors share a root mod p."""


class PrecisionExhausted(HyperrankError):
    """A result would need more p-adic digits than are carried."""


class FactorSearchInconclusive(HyperrankError):
    """Factoring a polynomial over Q or an integer ran out of budget, or an
    integer factorization could not be certified."""


# --- spectra ---------------------------------------------------------------

class CommutativityViolated(HyperrankError):
    def __init__(self, i, j):
        super().__init__(f"generators {i} and {j} do not commute")
        self.pair = (i, j)


class RankDeficient(HyperrankError):
    """An exact linear-algebra step met a rank it cannot work with: a
    singular generator or matrix, an inconsistent or underdetermined solve,
    a restriction to a lattice with non-integer entries, or invariant
    blocks that do not span."""


class RootFindingFailure(HyperrankError):
    """Numerical eigenvalue clustering could not be certified at the working tolerance."""


# --- ergodicity ------------------------------------------------------------

class NoErgodicSubgroupFound(HyperrankError):
    def __init__(self, obstructions, budget, reason=None):
        super().__init__(
            reason or f"no ergodic Z^2 subgroup within budget {budget}; "
            f"{len(obstructions)} candidate directions obstructed")
        self.obstructions = obstructions
        self.budget = budget
        self.reason = reason


# --- solenoid --------------------------------------------------------------

class LeavesDualLattice(HyperrankError):
    """A mode (or its image) has a denominator outside the prime set S."""


class DegenerateFit(HyperrankError):
    """Too few nonzero correlation entries to fit a rate."""


# --- nilpotent -------------------------------------------------------------

class ScalarMismatch(HyperrankError):
    """Nilpotent elements that cannot be combined: different structures,
    different scalar rings, or a crt target that is not p-adic at its
    prime p."""


class NotAnAutomorphism(HyperrankError):
    pass


class SplittingNotDirect(HyperrankError):
    """Claimed subspace splitting fails to be direct / spanning."""


# --- conjugacy -------------------------------------------------------------

class NotExpanding(HyperrankError):
    pass


class NoConvergence(HyperrankError):
    def __init__(self, budget, history):
        super().__init__(
            f"fixed-point sweep did not reach tolerance in {budget} sweeps "
            f"(last residual {history[-1]:.3e})")
        self.budget = budget
        self.history = history


class DegenerateField(HyperrankError):
    """Displacement field is constant; no regularity exponent to estimate."""


# --- cli -------------------------------------------------------------------

class ParseError(HyperrankError):
    pass
