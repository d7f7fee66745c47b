"""Detect the event basis of information operations in news flows.

The library follows the flow from a timestamped corpus to its event
structure: filter a thematic flow, study its daily dynamics against a
lifecycle template, extract the terminological basis, narrow to event
documents, and cluster them around seeded event keywords.
"""

from .corpus import (
    Corpus,
    Document,
    DocumentTable,
    FlowQuery,
    TermTable,
    filter_by_dates,
    filter_by_query,
    load_corpus,
    load_stopwords,
    normalize_term,
    save_corpus,
    tokenize_corpus,
)
from .errors import ConfigError, DataError
from .eventcluster import (
    UNASSIGNED,
    Centroid,
    Clustering,
    DocVectors,
    assign,
    kmeans_seeded,
    recompute_centroids,
    seed_centroids,
    vectorize,
)
from .flowseries import (
    DEFAULT_SMOOTHING_WINDOW,
    DEFAULT_TEMPLATE,
    Correlogram,
    DailySeries,
    LifecycleTemplate,
    Peak,
    build_daily_series,
    correlogram,
    detect_peaks,
    load_template,
    sample_template,
    smooth,
)
from .sourcegraph import (
    SourceGraph,
    VisibilityGraph,
    horizontal_visibility_graph,
    source_link_graph,
)
from .synthflow import (
    BurstSpec,
    ClusterDef,
    ClusterSpec,
    generate_burst_series,
    generate_cluster_corpus,
)
from .termbase import (
    DEFAULT_EVENT_LEXICON,
    TermWeight,
    augment_query,
    compute_tfidf,
    document_frequencies,
    load_lexicon,
    match_event_terms,
)
