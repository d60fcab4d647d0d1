"""UV-plane beam layouts, seeded UE drops, and spherical-Earth projection for
non-terrestrial-network system-level simulation setup."""

__version__ = "0.1.0"

from . import analysis, cli, deployment, layout, projection
from .analysis import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from .deployment import *  # noqa: F401,F403
from .layout import *  # noqa: F401,F403
from .projection import *  # noqa: F401,F403

# Each module's own __all__ is the one list of its public names.
__all__ = ["__version__"] + [
    name
    for module in (projection, layout, deployment, analysis, cli)
    for name in module.__all__
]
