from .database import (
    Database,
    PerceptionConfig,
    associate,
    build_database,
    load_database,
    prepare_goal_regions,
    save_database,
)
from .descriptor import GridPooledDescriptor
from .regions import ObjectRegion, extract_regions

__all__ = [
    "Database",
    "PerceptionConfig",
    "associate",
    "build_database",
    "load_database",
    "prepare_goal_regions",
    "save_database",
    "GridPooledDescriptor",
    "ObjectRegion",
    "extract_regions",
]
