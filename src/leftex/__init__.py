"""leftex: exact simulation and structural analysis of one-dimensional
cellular automata on eventually periodic configurations."""

from .configuration import (
    Alphabet,
    Configuration,
    OneSidedSeq,
    format_configuration,
    fractional_part,
    left_edge,
    parse_configuration,
    seq_equal,
)
from .dynamics import (
    AperiodicityReport,
    PeriodCertificate,
    aperiodicity_scan,
    detect_eventual_period,
    limit_point_census,
    preperiod_bound,
    propagation_check,
    recurrence_scan,
    repetition_count_bound,
    subword_complexity,
)
from .numeric import (
    MulSpec,
    config_to_rational,
    fractional_multiplication_rule,
    multiplication_rule,
    multiplicative_order,
    rational_to_config,
    verify_mul,
)
from .properties import (
    DEFAULT_BUDGET,
    Counterexample,
    DimsSearch,
    ExpansivityDims,
    PropertyVerdict,
    RapidClassification,
    SpeedEstimate,
    Verdict,
    classify_rapid,
    estimate_spreading_speed,
    find_left_expansive_dims,
    is_left_expansive,
    is_left_permutive,
    is_left_spreading_eca,
    left_spreading_witnesses,
)
from .render import RenderSpec, default_palette, render, render_to
from .rules import (
    Automaton,
    LocalRule,
    SpaceTimePatch,
    apply,
    columns,
    compose,
    eca,
    eca_rule,
    identity_rule,
    make_rule,
    orbit,
    patch,
    shift_inverse_rule,
    shift_rule,
    trim_vacuous,
)
from .words import format_word, parse_word, word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
