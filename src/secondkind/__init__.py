"""Curvature operator of the second kind on model spaces and products. The
package namespace holds the README's Library names; import everything else
from its module."""

from .curvature import flat_tensor, kahler_space_form, product, space_form
from .descriptors import a_const
from .operator2k import classify, nonneg_threshold, spectrum, verdict

__version__ = "0.1.0"
