"""Sampling-series reconstruction operators and their convergence analysis.

The package couples a reconstruction kernel (a partition of unity on the
integer lattice) with a sample functional (point values, windowed means, or
convolution samples), evaluates the resulting series with certified
truncation, and measures convergence in the uniform norm and in modular
functionals generated by convex gauges.
"""

from .analysis import (
    BoundCheck,
    BoundConstant,
    ConvergenceReport,
    ConvergenceRow,
    ModularComparison,
    convergence_study,
    quantitative_constant,
    verify_modular_inequality,
    verify_quantitative_bound,
)
from .kernels import (
    CompactSupport,
    DecayingSupport,
    Kernel,
    bspline,
    fejer,
    fourier_hat,
    partition_of_unity_residual,
    sinc,
    window,
)
from .moments import (
    DivergentMomentError,
    MomentResult,
    continuous_absolute_moment,
    continuous_algebraic_moment,
    discrete_absolute_moment,
    discrete_algebraic_moment,
)
from .operators import (
    Convolution,
    OperatorSpec,
    PointMass,
    SeriesEvaluator,
    Window,
    evaluate_grid,
)
from .orlicz import (
    ExponentialFunction,
    ModularOverflowError,
    NormBracketError,
    PowerFunction,
    ZygmundFunction,
    luxemburg_norm,
    modular,
    modular_distance,
    modulars,
)
from .quadrature import QuadratureError, integrate
from .signals import (
    ModulusEstimate,
    Signal,
    UniformGrid,
    builtin_signal,
    indicator,
    modulus_of_continuity,
    piecewise_constant,
    sup_error,
)

__version__ = "0.1.0"
