"""Reading and writing networks as plain-text edge lists.

The formats are deliberately simple (whitespace-separated columns, ``#``
comments) so that the DBLP/Flickr case-study networks can be dumped,
inspected and reloaded without any binary dependency.

Homogeneous graphs: ``u v [weight]`` per line.
HINs: a sectioned format with ``*nodes <type>`` and ``*relation <name>``
headers.
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import GraphError, ReproError, SchemaError
from repro.networks.graph import Graph
from repro.networks.hin import HIN
from repro.networks.schema import NetworkSchema, Relation

__all__ = ["write_edge_list", "read_edge_list", "write_hin", "read_hin"]


def _open_for(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def _edge_tuple(line: str, line_no: int, error: type[ReproError]) -> tuple:
    """One ``u v [w]`` line as the edge tuple both readers hand to the
    edge door; a wrong token count, a non-integer index or a non-numeric
    weight is *error* naming the line."""
    tokens = line.split()
    try:
        if not 2 <= len(tokens) <= 3:
            raise ValueError
        return (*map(int, tokens[:2]), *map(float, tokens[2:]))
    except ValueError:
        raise error(
            f"line {line_no}: expected 'u v [w]' with integer u, v and a "
            f"numeric w, got {line!r}"
        ) from None


def write_edge_list(graph: Graph, path_or_file) -> None:
    """Write *graph* as ``u v weight`` lines with a header comment."""
    f, owned = _open_for(path_or_file, "w")
    try:
        f.write(f"# directed={int(graph.directed)} n_nodes={graph.n_nodes}\n")
        for u, v, w in graph.edges():
            if w == 1.0:
                f.write(f"{u} {v}\n")
            else:
                f.write(f"{u} {v} {w!r}\n")
    finally:
        if owned:
            f.close()


def read_edge_list(
    path_or_file, *, n_nodes: int | None = None, directed: bool | None = None
) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    The header comment supplies ``n_nodes``/``directed`` unless overridden;
    files without a header need both arguments.
    """
    f, owned = _open_for(path_or_file, "r")
    try:
        edges: list[tuple] = []
        header_n, header_directed = None, None
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("directed="):
                        header_directed = bool(int(token.split("=", 1)[1]))
                    elif token.startswith("n_nodes="):
                        header_n = int(token.split("=", 1)[1])
                continue
            edges.append(_edge_tuple(line, line_no, GraphError))
        n = n_nodes if n_nodes is not None else header_n
        if n is None:
            n = 1 + max((max(edge[:2]) for edge in edges), default=-1)
        d = directed if directed is not None else header_directed
        if d is None:
            d = False
        return Graph.from_edges(n, edges, directed=d)
    finally:
        if owned:
            f.close()


def write_hin(hin: HIN, path_or_file) -> None:
    """Write a HIN in the sectioned text format (schema + nodes + links)."""
    f, owned = _open_for(path_or_file, "w")
    try:
        f.write("*schema\n")
        for rel in hin.schema.relations:
            f.write(f"{rel.name} {rel.source} {rel.target}\n")
        for t in hin.schema.node_types:
            f.write(f"*nodes {t} {hin.node_count(t)}\n")
            names = hin.names(t)
            if names is not None:
                for name in names:
                    f.write(f"{name}\n")
        for rel in hin.schema.relations:
            f.write(f"*relation {rel.name}\n")
            m = hin.relation_matrix(rel.name).tocoo()
            for u, v, w in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
                if w == 1.0:
                    f.write(f"{u} {v}\n")
                else:
                    f.write(f"{u} {v} {w!r}\n")
    finally:
        if owned:
            f.close()


def read_hin(path_or_file) -> HIN:
    """Read a HIN written by :func:`write_hin`."""
    f, owned = _open_for(path_or_file, "r")
    try:
        lines = [line.rstrip("\n") for line in f]
    finally:
        if owned:
            f.close()

    relations: list[Relation] = []
    node_counts: dict[str, int] = {}
    node_names: dict[str, list[str]] = {}
    edges: dict[str, list[tuple]] = {}

    section = None  # ("schema",) | ("nodes", type, remaining) | ("relation", name)
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("*"):
            parts = stripped.split()
            tag = parts[0]
            if tag == "*schema":
                section = ("schema",)
            elif tag == "*nodes":
                if len(parts) != 3:
                    raise SchemaError(f"line {line_no}: expected '*nodes <type> <count>'")
                node_type, count = parts[1], int(parts[2])
                node_counts[node_type] = count
                section = ("nodes", node_type)
            elif tag == "*relation":
                if len(parts) != 2:
                    raise SchemaError(f"line {line_no}: expected '*relation <name>'")
                edges.setdefault(parts[1], [])
                section = ("relation", parts[1])
            else:
                raise SchemaError(f"line {line_no}: unknown section {tag!r}")
            continue
        if section is None:
            raise SchemaError(f"line {line_no}: content before any section header")
        if section[0] == "schema":
            parts = stripped.split()
            if len(parts) != 3:
                raise SchemaError(f"line {line_no}: expected 'name source target'")
            relations.append(Relation(*parts))
        elif section[0] == "nodes":
            node_names.setdefault(section[1], []).append(stripped)
        else:
            edges[section[1]].append(_edge_tuple(stripped, line_no, SchemaError))

    types = list(node_counts)
    schema = NetworkSchema(types, relations)
    names = {
        t: lst for t, lst in node_names.items() if len(lst) == node_counts[t]
    }
    for t, lst in node_names.items():
        if lst and len(lst) != node_counts[t]:
            raise SchemaError(
                f"type {t!r}: {len(lst)} names for {node_counts[t]} nodes"
            )
    nodes_spec: dict[str, object] = {}
    for t in types:
        nodes_spec[t] = names.get(t, node_counts[t])
    return HIN.from_edges(schema, nodes=nodes_spec, edges=edges)
