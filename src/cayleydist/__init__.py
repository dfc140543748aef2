"""Word metrics, isoperimetric certificates, and low-distortion lp embeddings
for three families of finite solvable groups and their infinite parents."""

from .errors import (
    BadMatrix,
    BadParam,
    BadScale,
    CapExceeded,
    CayleyDistError,
    DegenerateGenerators,
    DegenerateInput,
    FamilyMismatch,
    IncompatibleSpecs,
    InfiniteNeedsRadius,
    NoConvergence,
    Overflow,
    ZeroGradient,
    ZeroNorm,
)
from .cayley import (
    BallTable,
    DiameterReport,
    ExpRadicalReport,
    GirthReport,
    bfs_ball,
    diameter,
    exp_radical_csv,
    exp_radical_scan,
    girth,
    sphere_csv,
)
from .distortion import (
    C2Result,
    DistortionReport,
    MetricTable,
    distortion_equivariant,
    distortion_pairwise,
    exact_c2,
    metric_from_table,
    report_json,
)
from .embed import (
    AprioriBound,
    CircleMap,
    EmbeddingBundle,
    apriori_bound,
    build_bundle,
    bundle_json,
    cocycle_defect,
    embed_norm,
    embed_norms_all,
    embed_point,
)
from .profile import (
    ProfileCurve,
    TestVector,
    dirichlet_pc,
    lp_norm,
    optimize_profile,
    profile_csv,
    profile_curve,
    rayleigh,
    revalidate,
    translate,
    vector_json,
)
from .groups import (
    CodeSpace,
    GroupSpec,
    from_string,
    generators,
    identity,
    inv,
    make_spec,
    matrix_order,
    mul,
    project,
    spec_from_dict,
    spec_to_dict,
    to_string,
)

__version__ = "0.1.0"
