"""Multilevel subsampling of isometries with level-structured sparsity:
coherence profiles, restricted-isometry-in-levels certification,
measurement allocation calculators, and weighted l1 recovery."""

from .levels import *
from .operators import *
from .coherence import *
from .sampling import *
from .ripl import *
from .recovery import *

__version__ = "0.1.0"
