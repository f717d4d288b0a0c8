"""Spectral enclosures for J-self-adjoint operators.

Subpackages by task: ``geometry`` (closed-form regions and membership),
``operators`` (dense matrix constructions, projections, relative bounds),
``verification`` (randomized theorem-checking harnesses),
``sturm_liouville`` (the indefinite Sturm-Liouville pipeline), and
``reporting`` (configs and deterministic persistence).
"""

from .geometry import (
    DiskFamilyRegion,
    RelBound,
    SLBox,
    SpectrumModel,
    boundary_polyline,
    disk_region_membership,
    hull_membership,
    hull_tangency,
    phi,
    phi_extrema,
    smallerb_threshold,
    sup_resolvent_factor_bound,
    tmain_regions,
)
from .operators import (
    BlockOperator,
    KreinPerturbationProblem,
    ProjectionData,
    assemble_block,
    j0_quadrature,
    k_set_membership,
    min_relative_bound,
    renorm_check,
    resolvent_factor_norm,
    resolvent_norm,
    spectral_projections,
)
from .sturm_liouville import (
    Potential,
    SLConstants,
    bst_region,
    containment_report,
    discretize,
    lemma_ls_check,
    lp_norm,
    sl_box,
    sl_constants,
    sl_eigenvalues,
    tau0_hilbert_form,
)
from .verification import (
    VerificationReport,
    random_block_operator,
    random_krein_problem,
    resolvent_order_check,
    verify_block_theorem,
    verify_tmain,
)

__version__ = "0.1.0"
