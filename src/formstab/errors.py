"""Exception types shared across the package."""

from __future__ import annotations


class FormstabError(Exception):
    """Base class for all package-specific errors."""


class FormationValidationError(FormstabError):
    """A formation instance violates one or more structural invariants.

    Validation is exhaustive: ``violations`` lists every problem found,
    not just the first one.  Each violation is a `Violation` record with a
    ``kind`` tag (``cycle_detected``, ``dimension_mismatch``,
    ``not_weakly_connected``, ``duplicate_edge``, ``self_loop``,
    ``non_finite``), a ``message`` and an ``info`` tuple holding the
    witness.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid formation: {lines}")

    def kinds(self):
        return {v.kind for v in self.violations}


class ConvergenceFailure(FormstabError):
    """Eigenvalue iteration failed to converge."""


class NotStabilizableError(FormstabError):
    """The pair (A, B) fails the PBH rank test for some unstable eigenvalue."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"pair is not stabilizable: PBH rank deficiency at eigenvalue {witness}"
        )


class SynthesisFailure(FormstabError):
    """Gain synthesis produced a non-Hurwitz closed loop despite stabilizability."""


class RateTooAggressive(FormstabError):
    """Requested decay rate is not smaller than the spectral gap of the matrix."""


class CertificateError(FormstabError):
    """A numerically computed decay certificate failed its sampling check,
    or its Lyapunov solution is not positive definite."""


class NotStableError(FormstabError):
    """Controller synthesis was requested for an instance judged unstable."""


class MissingStateError(FormstabError):
    """A control evaluation is missing the state of the agent or one of its parents."""


class NotSiblingParentsError(FormstabError):
    """The requested pair of nodes are not both parents of the given follower."""


class StepTooLargeError(FormstabError):
    """An RK4 run's step exceeds the stability cap for the closed-loop
    dynamics (the exact ``"expm"`` integrator has none), or the step
    increment e^(dt A) - I overflows: a leader input of huge
    frequency, or an input map G H that overflows (the closed loop itself
    is finite, see `simulate`); or the computed step of a rotation
    generator (a sinusoid's, or any S with S + S^T = 0) is so far from a
    rotation that its generator state would leave the float range."""


class TraceWriteError(FormstabError, OSError):
    """The trace CSV could not be written; no partial file is left."""


class NonFiniteStateError(FormstabError):
    """Integration produced a non-finite state (overflow or NaN); raised as
    this class when the error loop decays, so T exceeds the float range of
    the leaders' own growth.  Carries the first non-finite grid ``time``
    and the ``error_loop`` verdict (see `NonDecayError`)."""

    _format = ("T={T} exceeds the float range of the leaders' own growth: "
               "non-finite state at t={time}, while the error loop decays")

    def __init__(self, time, T, error_loop):
        self.time = time
        self.error_loop = error_loop
        super().__init__(self._format.format(T=T, time=time, loop=error_loop))


class NonDecayError(NonFiniteStateError):
    """A non-finite state whose cause is non-decay: the error loop is not Hurwitz."""

    _format = ("non-decay: the error loop is not Hurwitz (spectral abscissa "
               "{loop.spectral_abscissa:.3e}); non-finite state at t={time}")
