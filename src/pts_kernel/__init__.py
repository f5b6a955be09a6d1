"""A small pure type system kernel with first-class definitions, user rewrite
rules, and a head-reduction trace engine, plus a machine-checked corpus of
looping proof terms in inconsistent systems."""

from .env import Decl, Def, GlobalEnv, Rewrite, add_entry, unfold_all
from .errors import (
    DuplicateNameError,
    IllFormedPatternError,
    KernelError,
    ParseError,
    TypeCheckError,
)
from .display import fold_display, plain_display, raw_display
from .reduce import (
    ANNOTATIONS,
    HEAD_DEF,
    HEAD_LINEAR,
    POLY,
    LoopReport,
    Trace,
    TraceStep,
    detect_loop,
    erase,
    erase_env,
    head_def_step,
    head_linear_step,
    readback,
    trace,
)
from .specs import LAMBDA_HOL, LAMBDA_U_MINUS, PRESETS, PtsSpec
from .terms import (
    App,
    BOX,
    Const,
    HOLE,
    Lam,
    Let,
    Pi,
    STAR,
    Sort,
    SortT,
    TRIANGLE,
    Term,
    Var,
    alpha_eq,
    app,
    shift,
    subst,
)
from .typecheck import Fuel, check, convert, infer, whnf

__all__ = [name for name in dir() if not name.startswith("_")]
