"""Exception types shared across the package."""


class ParseError(ValueError):
    """A configuration file could not be parsed; message carries file/key context."""


class ValidationError(ValueError):
    """A configuration or parameter set violates a documented invariant."""


class InconsistentStart(ValidationError):
    """Initial inverse-model values cannot satisfy the output constraint."""


class NewtonDiverged(RuntimeError):
    """Newton iteration failed to reach the residual tolerance within the cap.

    ``time`` is the grid time of the failing step.
    """

    def __init__(self, time: float, residual: float, iterations: int):
        self.time = time
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Newton did not converge at t={time:.6g} s "
            f"(scaled residual {residual:.3e} after {iterations} iterations)"
        )


class WindowOutOfRange(ValueError):
    """A metrics window does not lie inside the recorded sample range."""
