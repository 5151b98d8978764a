"""Law-invariant coherent risk measures on Orlicz spaces.

Young-function conjugate pairs, Luxemburg norms on finite sample spaces,
distortion (Choquet) risk measures with their scenario-set duals, and a
Monte Carlo harness checking that plug-in estimates converge to the
population value along growing iid samples.

The package exports exactly the names in its modules' ``__all__`` lists.
"""
from . import distortion, harness, laws, orlicz, quadrature, quantiles, young
from .distortion import *  # noqa: F403
from .harness import *  # noqa: F403
from .laws import *  # noqa: F403
from .orlicz import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .quantiles import *  # noqa: F403
from .young import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (distortion, harness, laws, orlicz, quadrature, quantiles, young)
    for name in module.__all__
)
