"""Command-line front door: frame, check-minkowski, solve, verify, volume.

All floating-point output is printed with 17 significant digits, and
every randomized path takes an explicit seed (default 0), so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1
computational failure, 2 configuration error.
"""

import json
import sys

import click
import numpy as np

from . import variation as va
from .acceptance import run_all
from .errors import CartanAreaError
from .expr import ExpressionError, compile_expression
from .extremal import solve_dirichlet
from .frames import cartan_frame
from .gram import MetricTensor, volume as gram_volume
from .grassmann import GrassmannElement, element_from_record
from .lagrangian import by_name, homogenize, minkowski_check
from .records import (
    fmt,
    graph_csv_lines,
    graph_to_dict,
    matrix_lines,
    parse_vectors,
    read_graph,
    write_graph,
)


def _load_config(ctx, param, value):
    if value is None:
        return None
    try:
        with open(value) as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {value}: {exc}")
    ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return value


def _config_option(fn):
    return click.option(
        "--config",
        type=click.Path(exists=True, dir_okay=False),
        callback=_load_config,
        expose_value=False,
        is_eager=True,
        help="JSON file whose keys mirror the option names.",
    )(fn)


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(exc):
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(1)


def _parse_dims(dims):
    if dims is None:
        return None, None
    try:
        n, p = (int(tok) for tok in dims.replace(",", " ").split())
        return n, p
    except ValueError:
        raise click.UsageError(f"cannot parse dimensions {dims!r} (expected 'n,p')")


def _resolve_lagrangian(name, dims):
    n, p = _parse_dims(dims)
    try:
        return by_name(name, n, p)
    except (ValueError, ExpressionError) as exc:
        raise click.UsageError(str(exc))


def _parse_domain(text, p):
    if text is None:
        return ((0.0, 1.0),) * p
    try:
        parts = [seg for seg in text.split(";") if seg.strip()]
        domain = tuple(tuple(float(v) for v in seg.split(",")) for seg in parts)
    except ValueError:
        raise click.UsageError(f"cannot parse domain {text!r}")
    if len(domain) != p or any(len(ax) != 2 for ax in domain):
        raise click.UsageError(f"domain needs {p} 'lo,hi' segments separated by ';'")
    return domain


def _boundary_callable(exprs, n, p):
    m = n - p
    parts = [seg.strip() for seg in exprs.split(";")]
    if len(parts) == 1 and m > 1:
        parts = parts * m
    if len(parts) != m:
        raise click.UsageError(f"boundary needs {m} expressions separated by ';'")
    names = [f"x{j + 1}" for j in range(p)]
    try:
        fns = [compile_expression(text, names) for text in parts]
    except ExpressionError as exc:
        raise click.UsageError(str(exc))
    return lambda x: np.array([fn(list(x)) for fn in fns])


def _solve(L, boundary, domain, resolution):
    """``solve_dirichlet``, reporting rejected inputs (a too-small resolution) as usage errors."""
    try:
        return solve_dirichlet(L, boundary, domain, resolution)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Numerical toolkit for variationally defined orthogonal frames."""


@main.command()
@_config_option
@click.option("--lagrangian", required=True, help="Built-in name or expression.")
@click.option("--dims", default=None, help="Dimensions 'n,p' for expressions/gram/dirichlet.")
@click.option("--slopes", default=None, help="Slope matrix rows, e.g. '1 0; 0 1'.")
@click.option("--element", default=None, type=click.Path(exists=True, dir_okay=False),
              help="JSON element record {n, p, base_point, slopes} instead of --slopes.")
@click.option("--point", default=None, help="Base point coordinates (defaults to 0).")
@click.option("--normalize", is_flag=True, help="Scale frame vectors to unit length.")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "out_format", default="text", type=click.Choice(["text", "structured-record"]))
def frame(lagrangian, dims, slopes, element, point, normalize, output, out_format):
    """Compute the orthogonal frame at one slope matrix."""
    L = _resolve_lagrangian(lagrangian, dims)
    try:
        if element is not None:
            with open(element) as fh:
                elem = element_from_record(json.load(fh))
        elif slopes is not None:
            q = parse_vectors(slopes)
            base = None
            if point is not None:
                base = np.array([float(tok) for tok in point.replace(",", " ").split()])
            elem = GrassmannElement(
                n=L.n, p=L.p, slopes=q.reshape(L.codim, L.p), base_point=base
            )
        else:
            raise click.UsageError("need --slopes or --element")
        fr = cartan_frame(L, elem, normalize=normalize)
    except (CartanAreaError,) as exc:
        _fail(exc)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out_format == "structured-record":
        record = {
            "lagrangian": L.name,
            "n": L.n,
            "p": L.p,
            "slopes": elem.slopes.tolist(),
            "vectors": fr.vectors.tolist(),
            "degenerate": list(fr.degenerate),
        }
        _emit(json.dumps(record) + "\n", output)
    else:
        _emit("\n".join(matrix_lines(fr.vectors)) + "\n", output)


@main.command("check-minkowski")
@_config_option
@click.option("--lagrangian", required=True, help="Hypersurface Lagrangian (p = n-1).")
@click.option("--dims", default=None)
@click.option("--samples", default=25, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def check_minkowski(lagrangian, dims, samples, seed, output):
    """Validate the homogenized integrand as a fiberwise Minkowski norm."""
    L = _resolve_lagrangian(lagrangian, dims)
    try:
        F = homogenize(L)
        rng = np.random.default_rng(seed)
        pts = []
        for _ in range(samples):
            xi = rng.uniform(-2.0, 2.0, L.n)
            xi[-1] = rng.uniform(0.3, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            pts.append((np.zeros(L.n), xi))
        report = minkowski_check(F, pts)
    except CartanAreaError as exc:
        _fail(exc)
    lines = [
        f"homogeneity_ok: {report.homogeneity_ok}",
        f"hessian_ok: {report.hessian_ok}",
        f"min_eigenvalue: {fmt(report.min_eigenvalue)}",
        f"failures: {len(report.failures)}",
    ]
    for idx, msg in report.failures:
        lines.append(f"  sample {idx}: {msg}")
    _emit("\n".join(lines) + "\n", output)


@main.command()
@_config_option
@click.option("--lagrangian", required=True)
@click.option("--dims", default=None)
@click.option("--domain", default=None, help="Per-axis 'lo,hi' segments, e.g. '0,1;0,1' (default unit box).")
@click.option("--resolution", default=33, show_default=True)
@click.option("--boundary", required=True, help="Dirichlet data expressions in x1..xp.")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option(
    "--format",
    "out_format",
    default="structured-record",
    show_default=True,
    type=click.Choice(["structured-record", "csv", "text"]),
)
def solve(lagrangian, dims, domain, resolution, boundary, output, out_format):
    """Solve the discrete Euler-Lagrange Dirichlet problem on a box."""
    L = _resolve_lagrangian(lagrangian, dims)
    dom = _parse_domain(domain, L.p)
    bc = _boundary_callable(boundary, L.n, L.p)
    try:
        graph = _solve(L, bc, dom, resolution)
    except CartanAreaError as exc:
        _fail(exc)
    if out_format == "structured-record":
        if output:
            write_graph(output, graph)
        else:
            click.echo(json.dumps(graph_to_dict(graph)))
    elif out_format == "csv":
        _emit("\n".join(graph_csv_lines(graph)) + "\n", output)
    else:
        info = graph.info
        text = (
            f"action: {fmt(info['action'])}\n"
            f"residual: {fmt(info['residual'])}\n"
            f"iterations: {info['iterations']}\n"
        )
        _emit(text, output)


def _field_index(kind, count):
    """The 0-based index of 'frame:k' or 'tangent:k', for k in 1..count."""
    tail = kind.split(":", 1)[1]
    if not (tail.isdigit() and 1 <= int(tail) <= count):
        raise click.UsageError(f"field {kind!r}: the index must be one of 1..{count}")
    return int(tail) - 1


def _build_field(kind, L, graph):
    slopes_fn = va.graph_slopes_fn(graph)
    if kind == "frame" or kind.startswith("frame:"):
        weights = None
        if ":" in kind:
            weights = np.zeros(L.codim)
            weights[_field_index(kind, L.codim)] = 1.0
        return va.frame_field(L, slopes_fn, weights=weights)
    if kind == "euclidean-normal":
        return va.euclidean_normal_field(L.n, L.p, slopes_fn)
    if kind.startswith("tangent:"):
        return va.tangent_field(L.n, L.p, slopes_fn, j=_field_index(kind, L.p))
    parts = [seg.strip() for seg in kind.split(";")]
    if len(parts) != L.n:
        raise click.UsageError(
            f"field {kind!r} not recognized (need 'frame', 'frame:k', "
            f"'euclidean-normal', 'tangent:j', or {L.n} expressions in x1..x{L.n})"
        )
    names = [f"x{i + 1}" for i in range(L.n)]
    fns = [compile_expression(text, names) for text in parts]
    return lambda m: np.array([fn(list(m)) for fn in fns])


def _build_psi(text, L, dom, seed):
    if text == "random":
        return va.random_intensity(np.random.default_rng(seed), L.n)
    if text.startswith("edge:"):
        return va.edge_indicator(dom, text.split(":")[1])
    try:
        return float(text)
    except ValueError:
        pass
    names = [f"x{i + 1}" for i in range(L.n)]
    fn = compile_expression(text, names)
    return lambda m: fn(list(m))


@main.command()
@_config_option
@click.option("--lagrangian", required=True)
@click.option("--dims", default=None)
@click.option("--graph", "graph_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--domain", default=None)
@click.option("--resolution", default=33, show_default=True)
@click.option("--boundary", default=None)
@click.option("--field", "fields", multiple=True, required=True)
@click.option("--psi", default="1", show_default=True)
@click.option("--step", type=float, default=None, help="Finite-difference step in t.")
@click.option("--seed", default=0, show_default=True)
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "out_format", default="text", type=click.Choice(["text", "csv"]))
def verify(lagrangian, dims, graph_path, domain, resolution, boundary, fields, psi, step, seed, output, out_format):
    """Test deformation fields for normality by re-solving the action."""
    L = _resolve_lagrangian(lagrangian, dims)
    boundary_fn = None
    try:
        if graph_path:
            graph = read_graph(graph_path)
        else:
            if boundary is None:
                raise click.UsageError("need either --graph or --boundary (plus optional --domain)")
            dom = _parse_domain(domain, L.p)
            boundary_fn = _boundary_callable(boundary, L.n, L.p)
            graph = _solve(L, boundary_fn, dom, resolution)
        dom = graph.domain
        candidates = []
        for kind in fields:
            try:
                direction = _build_field(kind, L, graph)
                intensity = _build_psi(psi, L, dom, seed)
            except ValueError as exc:  # ExpressionError, or a bad edge side
                raise click.UsageError(str(exc))
            candidates.append(
                (kind, va.DeformationSpec(direction=direction, intensity=intensity, step=step, name=kind))
            )
        rows = va.normality_scan(L, graph, candidates, boundary_data=boundary_fn)
    except CartanAreaError as exc:
        _fail(exc)
    header = ["field", "A0", "dA_dt", "dA_dt_order4", "boundary_formula", "classification"]
    table = []
    for row in rows:
        if row.report is None:
            table.append([row.name, "", "", "", "", row.note])
        else:
            r = row.report
            table.append(
                [
                    row.name,
                    fmt(r.A0),
                    fmt(r.dA_dt),
                    fmt(r.dA_dt_order4),
                    fmt(r.boundary_formula_value),
                    r.classification,
                ]
            )
    if out_format == "csv":
        text = "\n".join([",".join(header)] + [",".join(r) for r in table]) + "\n"
    else:
        widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    _emit(text, output)


@main.command()
@_config_option
@click.option("--vectors", required=True, help="Vector rows, e.g. '1 0; 0 1'.")
@click.option("--metric", default=None, help="Metric component rows (default identity).")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def volume(vectors, metric, output):
    """Metric volume of the parallelepiped spanned by the vectors."""
    try:
        vecs = parse_vectors(vectors)
        g = None
        if metric is not None:
            comp = parse_vectors(metric)
            g = MetricTensor(dim=comp.shape[0], components=comp)
        value = gram_volume(vecs, g)
    except CartanAreaError as exc:
        _fail(exc)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(fmt(value) + "\n", output)


@main.command()
@_config_option
@click.option("--seed", default=0, show_default=True)
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def acceptance(seed, output):
    """Run the full verification checklist with a fixed seed."""
    try:
        results, text = run_all(seed)
    except CartanAreaError as exc:
        _fail(exc)
    _emit(text, output)
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
