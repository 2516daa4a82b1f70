"""Six-emotion text classifier built on a bidirectional recurrent network.

The pipeline: clean and tokenize raw text, drop stopwords, encode against
a frequency-ranked vocabulary, then classify with an embedding + three
bidirectional recurrent layers + dense stack trained by adaptive-moment
descent. Everything runs on plain arrays and is bit-reproducible for a
fixed seed: from batch 48 up, whatever the CPU count, each recurrent layer
runs its two directions on two threads, with the same bits as one.
"""

from .corpus import (LABEL_NAMES, OOV_ID, PAD_ID, DatasetError, LabeledCorpus,
                     LabeledRecord, Vocabulary, build_vocabulary, clean_text,
                     default_stopwords, encode, encode_corpus, load_dataset,
                     load_stopwords, remove_stopwords, split, text_to_tokens,
                     tokenize)
from .metrics import (ClassMetrics, ConfusionMatrix, EvalReport,
                      classification_metrics, confusion_matrix,
                      history_report, report_from_predictions)
from .model import Model, ModelConfig, SummaryRow, build_model, predict, summary
from .serialize import ModelFormatError, load, save
from .trainer import (Adam, EpochRecord, TrainConfig, TrainingError, evaluate,
                      fit, predict_codes, train_epoch)
from .wordstats import FrequencyTable, frequency_by_label, table_to_dict, top_k

__version__ = "0.1.0"

__all__ = [
    "LABEL_NAMES", "PAD_ID", "OOV_ID",
    "DatasetError", "LabeledRecord", "LabeledCorpus", "Vocabulary",
    "load_dataset", "clean_text", "tokenize", "remove_stopwords",
    "default_stopwords", "load_stopwords", "text_to_tokens",
    "build_vocabulary", "encode", "encode_corpus", "split",
    "Model", "ModelConfig", "SummaryRow", "build_model", "summary", "predict",
    "ModelFormatError", "save", "load",
    "TrainConfig", "EpochRecord", "TrainingError",
    "Adam", "train_epoch", "evaluate", "fit", "predict_codes",
    "ConfusionMatrix", "ClassMetrics", "EvalReport", "confusion_matrix",
    "classification_metrics", "report_from_predictions", "history_report",
    "FrequencyTable", "frequency_by_label", "top_k", "table_to_dict",
    "__version__",
]
