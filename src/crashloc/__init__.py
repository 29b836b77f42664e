"""crashloc: two-phase fault localization for Android framework-specific crashes.

Phase 1 categorizes a crash from its message (A: fault in the stack trace,
B: in code but outside the trace, C: outside the code). Phase 2 ranks
suspicious locations with a category-specific algorithm.
"""
from .appmodel import ApiRef, AppModel, MethodRef, load_app_model
from .config import Config, DEFAULT_FRAMEWORK_PREFIXES, load_config
from .corpus import Category, LabeledCrash, SubCategory, load_corpus, save_corpus
from .errors import CrashLocError
from .evaluation import EvalReport, bucketize, evaluate, kfold_split, mrr, recall_at_k
from .features import SelectedVocabulary, Vocabulary, build_vocabulary, chi_square_select, tokenize, vectorize
from .localizer import LocalizationResult, locate, locate_category_a, locate_category_b, locate_category_c
from .nb import NBModel, predict, train
from .similarity import crash_similarity, edit_distance, most_similar
from .trace import CrashReport, FrameworkMatcher, StackFrame, parse_and_split

__version__ = "0.1.0"

__all__ = [
    "ApiRef",
    "AppModel",
    "Category",
    "Config",
    "CrashLocError",
    "CrashReport",
    "DEFAULT_FRAMEWORK_PREFIXES",
    "EvalReport",
    "FrameworkMatcher",
    "LabeledCrash",
    "LocalizationResult",
    "MethodRef",
    "NBModel",
    "SelectedVocabulary",
    "StackFrame",
    "SubCategory",
    "Vocabulary",
    "bucketize",
    "build_vocabulary",
    "chi_square_select",
    "crash_similarity",
    "edit_distance",
    "evaluate",
    "kfold_split",
    "load_app_model",
    "load_config",
    "load_corpus",
    "locate",
    "locate_category_a",
    "locate_category_b",
    "locate_category_c",
    "most_similar",
    "mrr",
    "parse_and_split",
    "predict",
    "recall_at_k",
    "save_corpus",
    "tokenize",
    "train",
    "vectorize",
]
