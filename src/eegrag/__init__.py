"""Three-layer hypergraph retrieval engine for EEG clinical question answering.

Layers: a knowledge hypergraph built from documents, a patient case store
with pseudo-case augmentation, and an EEG vector database searched by DTW
over PAA-compressed signals. Retrieval results fuse into a bounded context
subgraph that grounds a pluggable generation client, with an EM/F1
benchmark harness on top.
"""

from .cases import (
    CaseStore,
    PatientCase,
    PatientRecord,
    augment_pseudo_cases,
    case_id,
    embed_case,
    serialize_case,
)
from .config import PipelineConfig
from .eeg import (
    EegMatch,
    EegRecording,
    EegVectorDatabase,
    PaaEmbedding,
    dtw,
    eeg_embed,
    load_recording,
    paa,
    zscore,
)
from .embedding import Embedder, HashedTokenEmbedder
from .errors import (
    ComparabilityError,
    DimensionMismatchError,
    EegragError,
    NotFoundError,
    PreconditionError,
    ReferentialError,
    StoreSealedError,
    TransportError,
)
from .evaluation import (
    EvalReport,
    QaExample,
    bootstrap_std,
    exact_match,
    f1,
    load_qa,
    normalize_answer,
    run_benchmark,
)
from .fusion import (
    AblationFlags,
    FusedContext,
    GenerationClient,
    HttpChatClient,
    MockGenerationClient,
    RetrievalBundle,
    fuse,
    generate,
    render_context,
)
from .hypergraph import BipartiteStore, Entity, Hyperedge, Neighborhood
from .knowledge import (
    Document,
    Extractor,
    Fact,
    RuleBasedExtractor,
    build_kgh,
    load_documents,
)
from .pipeline import Pipeline, QueryResult, save_stores
from .retrieval import (
    EntityMatch,
    MetadataQuery,
    ScoredHyperedge,
    cosine,
    expand_entities,
    extract_query_entities,
    retrieve_hyperedges,
)

__version__ = "0.1.0"
