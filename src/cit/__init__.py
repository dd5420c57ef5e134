"""Common-information toolkit for finite joint sources.

Given a joint pmf of two finite-valued sources the package computes the
family of common-information quantities (maximal common function, mutual
information, splitting-variable bounds, r-round interactive values) and the
induced minimum communication rates for optimum-rate secret-key generation,
and provides a finite-blocklength laboratory that checks the exact
transcript identities and simulates binning-based key agreement.
"""

from .errors import (
    BudgetExceeded,
    CitError,
    DegenerateMarginal,
    DeltaOutOfRange,
    EmptyMatrix,
    ExtractionFailure,
    KernelInvalid,
    LemmaViolation,
    MarkovViolation,
    NegativeMass,
    NoFeasibleChain,
    NoFeasiblePoint,
    NotNormalized,
    OverlappingAxes,
    RateInfeasible,
    RateOutOfRange,
    SizeBudgetExceeded,
    UnknownAxis,
)
from .pmf import (
    FiniteAlphabet,
    JointPMF,
    TensorPMF,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    load_pmf,
    mutual_information,
    save_pmf,
    validate_pmf,
)
from .structure import (
    Labeling,
    NoninteractiveRate,
    double_markov_extract,
    gk_ci,
    gk_common_function,
    labeling_entropy,
    minimal_sufficient_statistic,
    noninteractive_rate,
)
from .optim import PenaltyConfig
from .wyner import AuxKernel, WynerResult, wyner_minimize, wyner_objective
from .chains import (
    AuxiliaryChain,
    BssClosedForm,
    ChainResult,
    DeterministicChain,
    binary_stop_classify,
    bss_closed_form,
    chain_objective,
    ci1_exact,
    continuous_chain_minimize,
    det_chain_search,
)
from .rates import RateConfig, RateReport, rate_report
from .protocols import (
    Protocol,
    decomposition_check,
    lemma1_check,
    random_protocol,
    transcript_law,
)
from .simulate import (
    SimReport,
    SwBinningReport,
    cr_sk_simulate,
    default_copy_chain,
    sw_binning_simulate,
)
from .sources import bss_pmf, gain_pmf, random_pmf

__version__ = "0.1.0"
