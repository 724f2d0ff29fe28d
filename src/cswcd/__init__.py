"""Numerical laboratory for weighted composition-differentiation operators
on weighted Bergman spaces: truncated series, exact operator matrices,
conjugations, and executable symmetry/normality checks.

The package exports nothing but ``__version__``; import the submodules
(``cswcd.runner``, ``cswcd.symbols``, ...) for their names."""

__version__ = "0.1.0"
