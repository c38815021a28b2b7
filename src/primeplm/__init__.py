"""Additive partially linear models with arbitrarily missing covariates.

Missing spline-basis rows and linear covariate values are imputed by
Nadaraya-Watson averages over partial donors (units observing a superset
of the target's covariates), then the full model is fit by least squares;
a jackknife model-averaging variant combines single-nonlinear-covariate
candidate fits with cross-validated simplex weights.

Each module's ``__all__`` lists the public names it contributes; the
package re-exports them all.
"""

from .dataset import *
from .kernel_impute import *
from .model_averaging import *
from .prime_fit import *
from .simulation import *
from .spline import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += dataset.__all__
__all__ += kernel_impute.__all__
__all__ += model_averaging.__all__
__all__ += prime_fit.__all__
__all__ += simulation.__all__
__all__ += spline.__all__
