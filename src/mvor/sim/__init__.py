from .config import SimConfig
from .models import (
    ModelLibrary,
    generate_model_library,
    load_model_library,
    save_model_library,
)
from .render import Frame, empty_frame, render, segment
from .scene import (
    Placement,
    RearrangementInstance,
    Rect,
    SceneState,
    apply_move,
    generate_instance,
)
from .io import (
    load_instance,
    save_instance,
    write_dataset,
)

__all__ = [
    "SimConfig",
    "ModelLibrary",
    "generate_model_library",
    "load_model_library",
    "save_model_library",
    "Frame",
    "empty_frame",
    "render",
    "segment",
    "Placement",
    "RearrangementInstance",
    "Rect",
    "SceneState",
    "apply_move",
    "generate_instance",
    "load_instance",
    "save_instance",
    "write_dataset",
]
