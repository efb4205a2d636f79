"""Exception types shared across the package."""


class CollisionError(ValueError):
    """Two bodies closer than the collision tolerance."""

    def __init__(self, i, j, distance):
        self.pair = (i, j)
        self.distance = distance
        super().__init__(
            "bodies %d and %d at distance %.3e" % (i, j, distance)
        )


class IntegrationFailure(RuntimeError):
    """The initial value solver could not reach the requested time."""


class NoConvergence(RuntimeError):
    """Newton or continuation iteration failed to converge."""


class UnsupportedCase(NotImplementedError):
    """Input outside the range handled by the implementation."""


class SingularReduction(RuntimeError):
    """A state with every body on the vertical axis and no horizontal
    velocity, from which no rotation phase can be read."""


class DegenerateSystem(RuntimeError):
    """A linear system that should be solvable is numerically singular."""
