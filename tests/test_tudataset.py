"""Plain-text benchmark dataset reader: layout handling and validation."""

import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from treemover import (
    DatasetFormatError,
    dataset_from_json,
    dataset_to_json,
    download_tudataset,
    parse_tudataset,
)


def write_dataset(directory, name, indicator, edges, node_attrs=None,
                  node_labels=None, graph_labels=None):
    """Write the text files for one dataset; edges are 1-based directed pairs."""
    (directory / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in indicator)
    )
    (directory / f"{name}_A.txt").write_text(
        "".join(f"{u}, {v}\n" for u, v in edges)
    )
    if node_attrs is not None:
        (directory / f"{name}_node_attributes.txt").write_text(
            "".join(", ".join(str(x) for x in row) + "\n" for row in node_attrs)
        )
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text(
            "".join(f"{l}\n" for l in node_labels)
        )
    if graph_labels is not None:
        (directory / f"{name}_graph_labels.txt").write_text(
            "".join(f"{l}\n" for l in graph_labels)
        )


def test_minimal_two_graph_dataset(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 2, 2, 2],
                  edges=[(1, 2), (2, 1), (3, 4), (4, 5)])
    ds = parse_tudataset(tmp_path, "toy")
    assert len(ds) == 2
    assert ds.name == "toy"
    assert ds.labels is None
    g0, g1 = ds.graphs
    assert g0.node_count == 2 and g0.edges == ((0, 1),)
    assert g1.node_count == 3 and g1.edges == ((0, 1), (1, 2))
    # no labels, no attributes: constant scalar feature
    assert np.array_equal(g0.features, np.ones((2, 1)))


def test_duplicate_directed_edges_collapse(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1],
                  edges=[(1, 2), (2, 1), (1, 2)])
    ds = parse_tudataset(tmp_path, "toy")
    assert ds.graphs[0].edges == ((0, 1),)


def test_node_labels_one_hot_sorted_alphabet(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 1, 2, 2],
                  edges=[(1, 2)], node_labels=[7, 2, 2, 7, 5])
    ds = parse_tudataset(tmp_path, "toy")
    # alphabet sorts to [2, 5, 7]
    assert ds.feature_dim == 3
    assert np.array_equal(ds.graphs[0].features,
                          np.array([[0, 0, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
    assert np.array_equal(ds.graphs[1].features,
                          np.array([[0, 0, 1], [0, 1, 0]], dtype=float))


def test_attributes_then_one_hot_concatenation(tmp_path):
    write_dataset(
        tmp_path, "toy", indicator=[1, 1], edges=[(1, 2)],
        node_attrs=[[0.5, -1.0], [2.0, 3.0]], node_labels=[1, 0],
    )
    ds = parse_tudataset(tmp_path, "toy")
    assert ds.feature_dim == 4
    assert np.array_equal(ds.graphs[0].features,
                          np.array([[0.5, -1.0, 0.0, 1.0], [2.0, 3.0, 1.0, 0.0]]))


def test_attributes_only(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[],
                  node_attrs=[[1.5], [-2.5]])
    ds = parse_tudataset(tmp_path, "toy")
    assert np.array_equal(ds.graphs[0].features, np.array([[1.5], [-2.5]]))


def test_graph_labels_attached(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 2, 2], edges=[(2, 3)],
                  graph_labels=[-1, 1])
    ds = parse_tudataset(tmp_path, "toy")
    assert ds.labels == (-1, 1)


def test_parse_roundtrips_through_json(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 2, 2, 2],
                  edges=[(1, 2), (3, 4), (4, 5), (3, 5)],
                  node_labels=[0, 1, 0, 1, 1], graph_labels=[1, 2])
    ds = parse_tudataset(tmp_path, "toy")
    back = dataset_from_json(dataset_to_json(ds))
    assert back == ds


def test_missing_required_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_tudataset(tmp_path, "absent")
    (tmp_path / "half_graph_indicator.txt").write_text("1\n")
    with pytest.raises(FileNotFoundError):
        parse_tudataset(tmp_path, "half")


def test_rejects_self_loop(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[(1, 1)])
    with pytest.raises(DatasetFormatError, match="self loop"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_decreasing_indicator(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 2, 1], edges=[])
    with pytest.raises(DatasetFormatError, match="non-decreasing"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_indicator_gap(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 3], edges=[])
    with pytest.raises(DatasetFormatError, match="cover"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_nonpositive_graph_ids(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[0, 1], edges=[])
    with pytest.raises(DatasetFormatError):
        parse_tudataset(tmp_path, "toy")


def test_rejects_edge_out_of_range(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[(1, 5)])
    with pytest.raises(DatasetFormatError, match="out of range"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_cross_graph_edge(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 2, 2], edges=[(2, 3)])
    with pytest.raises(DatasetFormatError, match="spans graphs"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_bad_edge_line(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[])
    (tmp_path / "toy_A.txt").write_text("1, 2, 3\n")
    with pytest.raises(DatasetFormatError):
        parse_tudataset(tmp_path, "toy")


def test_rejects_non_integer_indicator(tmp_path):
    write_dataset(tmp_path, "toy", indicator=["x"], edges=[])
    with pytest.raises(DatasetFormatError, match="integer"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_ragged_attributes(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[],
                  node_attrs=[[1.0, 2.0], [3.0]])
    with pytest.raises(DatasetFormatError, match="expected 2 values"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_attribute_row_count_mismatch(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 1], edges=[],
                  node_attrs=[[1.0], [2.0]])
    with pytest.raises(DatasetFormatError, match="rows for 3 nodes"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_node_label_count_mismatch(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[], node_labels=[0])
    with pytest.raises(DatasetFormatError, match="rows for 2 nodes"):
        parse_tudataset(tmp_path, "toy")


def test_rejects_graph_label_count_mismatch(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 2, 2], edges=[],
                  graph_labels=[1, 2, 3])
    with pytest.raises(DatasetFormatError, match="rows for 2 graphs"):
        parse_tudataset(tmp_path, "toy")


@pytest.mark.parametrize("part, text, line, message", [
    ("node_attributes", "1.0\n\nnan\n", 3, "expected a finite number, got 'nan'"),
    ("node_attributes", "\n-inf\n1.0\n", 2, "expected a finite number, got '-inf'"),
    ("A", "1, 2\n\n\nx, 2\n", 4, "expected an integer, got 'x'"),
    ("A", "1, 2\n\n1, 5\n", 3, "node id out of range 1..4"),
    ("A", "\n2, 2\n", 2, "self loop at node 2"),
    ("A", "1, 2\n\n\n2, 3\n", 4, "edge (2, 3) spans graphs 1 and 2"),
    ("A", "\n1, 2, 3\n", 2, "3 values, expected 2 values"),
])
def test_errors_name_the_line_counting_blank_lines(tmp_path, part, text, line, message):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 2, 2], edges=[(1, 2)],
                  node_attrs=[[1.0], [2.0], [3.0], [4.0]])
    path = tmp_path / f"toy_{part}.txt"
    path.write_text(text)
    with pytest.raises(DatasetFormatError,
                       match=rf"^{re.escape(str(path))}:{line}: {re.escape(message)}$"):
        parse_tudataset(tmp_path, "toy")


def test_undecodable_bytes_name_the_line(tmp_path):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[(1, 2)])
    path = tmp_path / "toy_graph_indicator.txt"
    path.write_bytes(b"1\n\n\xff\n")
    with pytest.raises(DatasetFormatError,
                       match=rf"^{re.escape(str(path))}:3: expected an integer, got "):
        parse_tudataset(tmp_path, "toy")


def test_download_short_circuits_on_existing_files(tmp_path):
    (tmp_path / "TOY").mkdir()
    write_dataset(tmp_path / "TOY", "TOY", indicator=[1, 1], edges=[(1, 2)])
    got = download_tudataset("TOY", tmp_path)
    assert str(got) == str(tmp_path / "TOY")


def test_download_unreachable_raises_oserror(tmp_path, monkeypatch):
    tried = []

    def unreachable(url, timeout=None):
        tried.append(url)
        raise urllib.error.URLError("network is unreachable")

    # no real connection: every mirror fails the way an offline host does
    monkeypatch.setattr(urllib.request, "urlopen", unreachable)
    with pytest.raises(OSError, match="could not fetch dataset DOES_NOT_EXIST_XYZ"):
        download_tudataset("DOES_NOT_EXIST_XYZ", tmp_path / "dl", timeout=3)
    assert len(tried) == 2 and all("DOES_NOT_EXIST_XYZ.zip" in u for u in tried)
