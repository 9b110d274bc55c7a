"""Optimal multi-guess strategies and leakage under a tunable loss family.

The package answers four questions about an adversary who gets k distinct
guesses at a secret drawn from a known finite distribution:

* what is the smallest expected loss it can guarantee (``minimal_loss``),
* how often should each symbol appear among the guesses
  (``optimal_coverage``),
* which explicit randomized strategy achieves that
  (``realize_coverage``), and
* how much does observing a correlated side variable help
  (``alpha_leakage``).

Every closed form ships with an independent numerical cross-check in
:mod:`kguess.oracle`.  Public names are those of each module's ``__all__``.
"""

from . import core, guessing, leakage, oracle, strategy
from .core import *  # noqa: F403
from .guessing import *  # noqa: F403
from .leakage import *  # noqa: F403
from .oracle import *  # noqa: F403
from .strategy import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *guessing.__all__,
    *leakage.__all__,
    *oracle.__all__,
    *strategy.__all__,
]
