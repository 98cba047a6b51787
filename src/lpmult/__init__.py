"""Lower-bound certification toolkit for Lp norms of Fourier multipliers.

Certified bounds come from explicit test functions: extremal perturbed martingale
transforms found by exact enumeration and gradient search, lifted to sign-function
witnesses on product tori by one checked call, `build_witness`, whose premise is the
symbol's exact value on the coordinate axes, with Gaussian transference and
shear-invariance checks connecting the discrete model to the continuous operators.
An operator family is its name and one value (`family_symbol`, `target_constant`).
Every name is imported from its own module (`lpmult.witness`, `lpmult.catalog`, ...);
the package holds only `__version__`, so importing it loads neither a module nor numpy.
"""

__version__ = "0.1.0"
