"""stgo-kit: solid harmonics, angular-momentum coupling, reduced Bessel / B
functions, spherical-tensor derivative operators, and two-range addition
theorems, with independent brute-force oracles for every closed form."""

from .errors import (
    BoundaryError,
    CapabilityError,
    ConvergenceError,
    DistributionalError,
    DomainError,
    ParameterSingularityError,
    SingularityError,
    StgoError,
    UnsupportedError,
)
from .special import (
    Rational,
    bessel_polynomial_theta,
    double_factorial,
    hyp1f1_terminating,
    hyp2f1,
    khat,
    khat_half,
    pochhammer,
    spherical_bessel_j,
)
from .harmonics import (
    HarmonicPolynomial,
    LMIndex,
    irregular_solid,
    laplacian_check,
    regular_solid,
    regular_solid_poly,
    ylm,
    ylm_table,
)
from .wigner import (
    CoupledRange,
    coupled_range,
    delta_quantities,
    gaunt,
    gaunt_string,
    wigner3j,
    wigner3j_string,
)
from .radial import RadialProfile
from .stgo import (
    TensorExpansion,
    TensorTerm,
    apply_to_tensor,
    apply_via_generator,
    as_scalar_expansion,
    gamma_radial,
    gamma_radial_profile,
    hobson_general,
    hobson_harmonic,
    laplacian_on_solid,
    leibniz,
    stgo_product_linearize,
)
from .bfun import (
    BExpansion,
    BIndex,
    b_fourier,
    b_fourier_functional_check,
    b_fourier_radial,
    b_value,
    convolve,
    helmholtz_ladder,
    laplacian_power,
    stgo_on_b,
    stgo_on_scalar_b,
)
from .addition import (
    AdditionResult,
    SplitPair,
    TruncationSpec,
    exp_dot_product,
    laplace_expansion,
    power_scalar_addition,
    power_solid_addition,
    solid_harmonic_shift,
    translation_tensor_terms,
)
from .oracles import (
    FDResult,
    FDScheme,
    HankelResult,
    QuadratureGrid,
    default_sphere_grid,
    fd_apply_operator,
    hankel_radial_ft,
    hankel_radial_inverse,
    momentum_convolution,
    sphere_integrate,
)

__version__ = "0.1.0"
