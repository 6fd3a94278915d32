"""Helpers shared by several test modules."""

import numpy as np

from realmon.states import DensityOperator


def maximally_mixed(d):
    """The maximally mixed state I/d."""
    return DensityOperator(np.eye(d, dtype=complex) / d, validate=False)
