"""labelprior: per-utterance label-ambiguity modelling.

Aggregates multi-annotator tags into agreement groups and soft labels,
trains a small classifier under hard, soft-KL, Dirichlet-NLL or
interpolated objectives, and evaluates uncertainty estimation by detecting
no-majority utterances with precision-recall analysis.
"""

from .annotations import (
    AgreementGroup,
    AnnotationSet,
    ClassSpace,
    LabelledExample,
    agreement,
    soft_label,
)
from .dirichlet import (
    CategoricalDist,
    DirichletParams,
    SingularityError,
    from_logits,
    log_pdf,
    predictive_mean,
)
from .losses import (
    LabelTerms,
    LossConfig,
    LossKind,
    batch_loss,
    terms_loss,
)
from .metrics import (
    MetricsReport,
    PRCurve,
    aupr,
    build_report,
    detect_report,
    entropy,
    max_p,
    pr_curve,
    wa_ua,
)
from .model import (
    ModelParams,
    TrainConfig,
    backward,
    forward,
    init,
    train,
)
from .specfun import digamma, log_gamma
from .synth import SynthConfig, SynthUtterance, generate

__version__ = "0.1.0"
