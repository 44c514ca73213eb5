"""Exception types shared across the package."""


class ParseError(ValueError):
    """A configuration file could not be parsed; message carries file/key context."""


class ValidationError(ValueError):
    """A configuration or parameter set violates a documented invariant."""


class InconsistentStart(ValidationError):
    """Initial inverse-model values cannot satisfy the output constraint."""


class NewtonDiverged(RuntimeError):
    """Newton iteration failed to reach the residual tolerance within the cap.

    Carries enough context to locate the failing step of a feedforward solve.
    """

    def __init__(self, time: float, residual: float, iterations: int, step_index: int = -1):
        self.time = time
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index
        super().__init__(
            f"Newton did not converge at t={time:.6g} s "
            f"(scaled residual {residual:.3e} after {iterations} iterations)"
        )


class FunnelViolation(RuntimeError):
    """The tracking error reached or left the performance funnel.

    The feedback law is undefined at such a sample; whoever runs the loop
    decides the consequence (the simulator stops and records the time).
    """

    def __init__(self, time: float, error: float, width: float):
        self.time = time
        self.error = error
        self.width = width
        super().__init__(
            f"tracking error {error:.6g} outside funnel width {width:.6g} at t={time:.6g} s"
        )


class WindowOutOfRange(ValueError):
    """A metrics window does not lie inside the recorded sample range."""
