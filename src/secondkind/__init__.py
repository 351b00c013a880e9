"""Curvature operator of the second kind on model spaces and products. The
package namespace holds the README's Library names; import everything else
from its module."""

from .curvature import flat_tensor, kahler_space_form, product, space_form
from .operator2k import classify, nonneg_threshold, spectrum, verdict
from .rigidity import a_const

__version__ = "0.1.0"
