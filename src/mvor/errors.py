"""Exception hierarchy. Every failure mode raised by the library derives
from MvorError so callers can catch the whole family at once."""


class MvorError(Exception):
    pass


# geometry
class DegenerateObservation(MvorError):
    """Viewpoint coincides with the point-cloud centroid; no viewing direction."""


class BehindCamera(MvorError):
    """Point has non-positive depth in the camera frame."""


# simulation
class PlacementFailure(MvorError):
    """Rejection sampling could not place all objects on the table."""


class CollisionAtTarget(MvorError):
    """Requested placement overlaps another object or leaves the table."""


class EmptyFrame(MvorError):
    """Rendering produced no visible points."""


class UnknownFeature(MvorError):
    """A feature id names no point of the model library."""


# perception / database
class NoRegions(MvorError):
    """No object regions found in any input frame."""


# localization
class TooFewCorrespondences(MvorError):
    """Fewer 2D-3D pairs than the pose solver minimum."""


class DegenerateGeometry(MvorError):
    """Every sampled point set was degenerate: too close to collinear for
    EPnP, or two pairs sharing their (x, y) for the planar solver."""


class NoCandidates(MvorError):
    """Retrieval ran against an empty database."""


# planner
class UnknownObject(MvorError):
    """Object id not present in the scene."""


class ReobservationFailed(MvorError):
    """Re-estimation from the home viewpoint was not accepted."""


class NoBufferSpace(MvorError):
    """Could not find a collision-free buffer pose within the attempt budget."""


# harness
class ConfigParseError(MvorError):
    """Config file missing, malformed, or containing unknown fields."""


class IOFailure(MvorError):
    """Read or write of an artifact file failed; message carries the path."""
