"""Tree mover's distance toolkit for attributed graphs.

Hierarchical optimal transport between node computation trees, with
closed-form perturbation bounds, message-passing stability checks,
dataset-level transport distances, and distance-based learning utilities.

`import treemover` loads only the standard library. The first access to
any public name (PEP 562 `__getattr__`) imports every submodule and binds
the whole public API at once, the distance engine included. So a program
that touches the API before it forks worker processes has the engine's two
compiled SciPy modules loaded in the parent, and the workers inherit them
instead of each loading them again. The API loads no SciPy package: the
engine and `ot` call SciPy's compiled modules directly (see `distance` and
`ot`), and the dataset LP loads its HiGHS module when it first runs. Nor
does it load multiprocessing: `pairwise_tmd` imports it only when it forks
(see `analysis`). The `tmd` command line imports submodules directly and
loads only the modules each subcommand uses (see `cli`).
"""

import importlib

_EXPORTS = {
    "analysis": ("dataset_w1", "pairwise_tmd", "shift_report"),
    "bounds": ("PerturbationReport", "edge_drop_bound", "edit_sequence_bound",
               "lambda_coefficients", "node_drop_bound",
               "node_perturbation_bound"),
    "distance": ("tmd", "tree_distance", "tree_norm", "tree_norm_levels"),
    "gnn": ("GinLayer", "GinModel", "LipschitzCheck", "empirical_lipschitz",
            "gin_forward", "lipschitz_check", "load_model_json", "make_gin",
            "matching_config", "model_from_json", "model_to_json", "pearson_r",
            "random_gin", "save_model_json", "spectral_norm"),
    "graphs": ("AttributedGraph", "DatasetFormatError", "GraphDataset",
               "dataset_from_json", "dataset_to_json", "drop_edge", "drop_node",
               "graph_from_json", "graph_to_json", "load_dataset_json",
               "load_graph_json", "permute_nodes", "perturb_feature",
               "random_graph", "save_dataset_json", "save_graph_json",
               "standardize_datasets"),
    "learn": ("KMedoidsResult", "completeness_score", "kmedoids", "knn_classify",
              "loo_knn_accuracy", "majority_rate", "nmi"),
    "matrix": ("DistanceMatrix", "gram_matrix", "load_distance_csv",
               "save_distance_csv"),
    "ot": ("TransportPlan", "augmented_ot", "solve_assignment", "solve_transport"),
    "schedule": ("ConfigError", "TmdConfig", "WeightSchedule", "constant_weights",
                 "pascal_weights", "pascal_weights_scaled"),
    "trees": ("ComputationTree", "blank_tree", "computation_tree", "naive_tmd",
              "naive_tree_distance", "tree_width", "tree_widths"),
    "tudataset": ("download_tudataset", "parse_tudataset"),
    "wl": ("wl_distinguishable", "wl_first_difference"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        namespace = importlib.import_module(f".{module}", __name__)
        globals().update((n, getattr(namespace, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
