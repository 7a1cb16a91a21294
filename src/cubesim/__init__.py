"""Simulations of single-shot interaction-free measurements in N-path
interferometers, under standard quantum mechanics and under the
density-cube model with genuine three-path coherence."""

from .cubes import (
    basis_cube,
    dephase,
    luders_update_cube,
    measure_path_prob,
    nonquantum_cube,
    optimal_cubes,
    quantum_to_cube,
)
from .experiments import (
    cube_tradeoff_bound,
    region_scan,
    region_scan_csv,
    run_cube_ifm,
    run_quantum_presets,
    sample_clicks,
    sorkin_term,
)
from .multiport import (
    MATRIX_TOL,
    MultiportMatrix,
    MultiportReport,
    SubBasis,
    apply_transform,
    assemble_multiport,
    from_coords,
    sub_basis,
    t3_matrix,
    to_coords,
    verify_multiport,
)
from .quantum import (
    SUPPORT_TOL,
    DensityMatrix,
    UnitaryMatrix,
    fourier_unitary,
    inject_first_path,
    luders_remove_path,
    quantum_ifm,
    quantum_tradeoff_bounds,
    support_projector,
)
from .results import IFMResult, results_to_csv
from .tensor import (
    DEFAULT_TOL,
    HermitianCube,
    cube_inner,
    hermitian_complete,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "MATRIX_TOL",
    "SUPPORT_TOL",
    "DensityMatrix",
    "HermitianCube",
    "IFMResult",
    "MultiportMatrix",
    "MultiportReport",
    "SubBasis",
    "UnitaryMatrix",
    "apply_transform",
    "assemble_multiport",
    "basis_cube",
    "cube_inner",
    "cube_tradeoff_bound",
    "dephase",
    "fourier_unitary",
    "from_coords",
    "hermitian_complete",
    "inject_first_path",
    "luders_remove_path",
    "luders_update_cube",
    "measure_path_prob",
    "nonquantum_cube",
    "optimal_cubes",
    "quantum_ifm",
    "quantum_to_cube",
    "quantum_tradeoff_bounds",
    "region_scan",
    "region_scan_csv",
    "results_to_csv",
    "run_cube_ifm",
    "run_quantum_presets",
    "sample_clicks",
    "sorkin_term",
    "sub_basis",
    "support_projector",
    "t3_matrix",
    "to_coords",
    "verify_multiport",
]
