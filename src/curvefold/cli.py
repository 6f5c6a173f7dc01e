"""Command-line front end: analysis, words, norms, decompositions, SVG.

All numeric output is exact: rationals are serialized as decimal strings
when they terminate and as "p/q" otherwise, never as floats.  Identical
input files produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .arrangement import (UNIT_WEIGHTS, Arrangement, CurveError, InvariantViolation,
                          MalformedInput, PlaneCurve, build_arrangement, check, face_measures,
                          fraction_str, int_str, load_json, parse_curve, rotation_number)
from .decomposition import CutStep, homotopy_trace, min_area_sod, sod_oracle
from .folding import (CapExceeded, Folding, cancellation_norm, is_self_overlapping,
                      norm_bruteforce, positively_foldable_bruteforce)
from .words import (combined_word, derive_flattening, face_word, letter_str, nie_word,
                    word_to_json)

EXIT_INPUT_ERROR = 2
EXIT_INVARIANT_ERROR = 3


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _emit(doc) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _fail(exit_code: int, code: str, message: str) -> None:
    _emit({"error": {"code": code, "message": message}})
    sys.exit(exit_code)


def _load_curve(path: str, weights_mode: str) -> PlaneCurve:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError("unreadable_input", str(exc))
    try:
        doc = load_json(raw)
    except MalformedInput as exc:
        raise CliError("invalid_json", str(exc))
    curve = parse_curve(doc)
    if weights_mode == "file":
        if curve.weights is None:
            raise CliError("missing_weights",
                           "--weights file needs a 'weights' object in the input")
        return curve
    if weights_mode == "unit":
        return PlaneCurve(curve.points, UNIT_WEIGHTS)
    return PlaneCurve(curve.points)      # "area": geometric face areas


def _folding_json(folding: Folding) -> dict:
    return {
        "pairings": sorted([p.i, p.j] for p in folding.pairings),
        "area": fraction_str(folding.area),
    }


WEIGHTS = click.option("--weights", "weights_mode",
                       type=click.Choice(["unit", "area", "file"]),
                       default="area", show_default=True,
                       help="Letter weights: all ones, face areas, or the "
                            "input file's weights object.")
INPUT = click.option("--input", "path", required=True,
                     type=click.Path(), help="Curve JSON file.")
ORACLE = click.option("--oracle", is_flag=True,
                      help="Cross-check against the exponential oracle.")


@click.group()
def main() -> None:
    """Exact analysis of closed curves in the plane."""


def _command(*options):
    """Make ``fn(curve, **option_values)`` a subcommand of ``main``.

    The command takes ``--input`` and ``--weights`` and then ``options``,
    hands ``fn`` the curve ``_load_curve`` reads, and maps its errors to
    exit codes.  Its name and help are ``fn``'s.
    """

    def register(fn):
        def callback(path: str, weights_mode: str, **values) -> None:
            try:
                fn(_load_curve(path, weights_mode), **values)
            except CliError as exc:
                _fail(EXIT_INPUT_ERROR, exc.code, str(exc))
            except CapExceeded as exc:
                _fail(EXIT_INPUT_ERROR, "oracle_cap", str(exc))
            except CurveError as exc:
                _fail(EXIT_INPUT_ERROR, type(exc).__name__, str(exc))
            except InvariantViolation as exc:
                _fail(EXIT_INVARIANT_ERROR, "invariant_violation", str(exc))
            except MemoryError:
                _fail(EXIT_INVARIANT_ERROR, "out_of_memory", f"{fn.__name__} ran out of memory")
        callback.__name__ = fn.__name__
        callback.__doc__ = fn.__doc__
        for option in reversed((INPUT, WEIGHTS) + options):
            callback = option(callback)
        return main.command()(callback)
    return register


@_command()
def analyze(curve: PlaneCurve) -> None:
    """Faces, winding numbers, depths, areas, rotation number."""
    arr = build_arrangement(curve)
    measures = face_measures(arr)
    _emit({
        "faces": [{"id": f.id, "area": fraction_str(f.signed_area),
                   "winding": f.winding, "depth": f.depth}
                  for f in arr.faces[1:]],
        "vertices": len(arr.vertices),
        "rotation_number": rotation_number(curve),
        "winding_area": fraction_str(measures["area_w"]),
        "depth_area": fraction_str(measures["area_d"]),
    })


@_command()
def word(curve: PlaneCurve) -> None:
    """Face word of the curve, three ways, with equality checks."""
    cables, bw = face_word(curve)
    nw = nie_word(cables.arr, cables.tc, derive_flattening(cables))
    cw = combined_word(cables.arr, cables)
    check(bw.letters == nw.letters, "word", "word constructions must agree")
    _emit({
        "blank_word": word_to_json(bw),
        "nie_word": word_to_json(nw),
        "combined_word": [f"v{tok[1]}.{tok[2]}" if tok[0] == "v" else letter_str(tok)
                          for tok in cw.tokens],
        "cable_order": list(cables.ordering),
    })


@_command(ORACLE)
def norm(curve: PlaneCurve, oracle: bool) -> None:
    """Cancellation norm of the face word, with witness folding."""
    _, w = face_word(curve)
    value, witness = cancellation_norm(w)
    doc = {
        "word": word_to_json(w),
        "norm": fraction_str(value),
        "witness": _folding_json(witness),
    }
    if oracle:
        brute = norm_bruteforce(w)
        check(brute == value, "norm", "norm oracle disagrees with the DP")
        doc["oracle"] = fraction_str(brute)
    _emit(doc)


@_command(ORACLE)
def selfoverlap(curve: PlaneCurve, oracle: bool) -> None:
    """Is the curve the boundary of an immersed disk?"""
    verdict, cert = is_self_overlapping(curve)
    doc = {"self_overlapping": verdict, **cert}
    if "witness" in cert:
        doc["witness"] = _folding_json(cert["witness"])
    if "word" in cert:
        doc["word"] = word_to_json(cert["word"])
        if oracle:
            ok = positively_foldable_bruteforce(cert["word"])
            check(ok == verdict, "selfoverlap", "positive-foldability oracle disagrees")
            doc["oracle"] = ok
    _emit(doc)


def _pieces_json(sod) -> list[dict]:
    """Each piece's letters, with the rotation its certificate holds and
    its winding area, the unpaired weight of the certificate's positive
    witness."""
    return [{"word": [letter_str(l) for l in piece.letters()],
             "rotation": cert["rotation"],
             "area": fraction_str(cert["witness"].area)}
            for piece, cert in zip(sod.subcurves, sod.certificates, strict=True)]


@_command(ORACLE)
def decompose(curve: PlaneCurve, oracle: bool) -> None:
    """Minimum-area decomposition into immersed-disk boundaries."""
    sod = min_area_sod(curve)
    doc = {
        "vertex_pairs": sorted(sod.vertex_pairs),
        "pieces": _pieces_json(sod),
        "area": fraction_str(sod.area),
    }
    if oracle:
        other = sod_oracle(sod.cables, sod.word)
        check((other.vertex_pairs, other.area) == (sod.vertex_pairs, sod.area), "decompose",
              "decomposition oracle disagrees")
        doc["oracle_area"] = fraction_str(other.area)
    _emit(doc)


@_command()
def homotopy(curve: PlaneCurve) -> None:
    """Minimum-area contraction schedule for the curve."""
    _, w = face_word(curve)
    value, witness = cancellation_norm(w)
    trace = homotopy_trace(witness)
    check(trace.total_area == value, "homotopy", "trace total must equal the norm")
    steps = []
    for step in trace.steps:
        if isinstance(step, CutStep):
            steps.append({"cut": {"face": step.face,
                                  "positions": list(step.positions)}})
        else:
            steps.append({"contract": {
                "letters": [letter_str(l) for l in step.letters],
                "area": fraction_str(step.area),
            }})
    _emit({"norm": fraction_str(value), "steps": steps,
           "total_area": fraction_str(trace.total_area)})


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_num(q: Fraction) -> str:
    """Exact fixed-point decimal with three digits, trailing zeros removed;
    a half rounds up."""
    return _svg_ratio(q.numerator, q.denominator)


def _svg_diff(a: Fraction, b: Fraction) -> str:
    """``_svg_num(a - b)``, formatted from integer numerators: no
    ``Fraction`` is made."""
    return _svg_ratio(a.numerator * b.denominator - b.numerator * a.denominator,
                      a.denominator * b.denominator)


def _svg_ratio(num: int, den: int) -> str:
    """``_svg_num`` of num / den, for den > 0, reduced or not."""
    n, r = divmod(num * 1000, den)
    if 2 * r >= den:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 1000)
    if frac == 0:
        return f"{sign}{int_str(whole)}"
    return f"{sign}{int_str(whole)}.{str(frac).rjust(3, '0').rstrip('0')}"


_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad",
            "#d35400", "#16a085", "#7f8c8d", "#f39c12")


def _bbox(arr: Arrangement):
    xs = [p[0] for p in arr.curve.points]
    ys = [p[1] for p in arr.curve.points]
    return min(xs), min(ys), max(xs), max(ys)


def _face_anchor(arr: Arrangement, fid: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """A deterministic point just inside the face.

    Midpoint of the first boundary segment, nudged toward the face side
    (the left of the dart) by about ``eps``, a fraction of the drawing size.
    """
    g = arr.dart_geometry(arr.faces[fid].boundary[0])
    a, b = g[0], g[1]
    mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
    vx, vy = b[0] - a[0], b[1] - a[1]
    norm2 = vx * vx + vy * vy
    # left normal of (vx, vy) is (-vy, vx); scale to roughly eps length
    scale = eps * eps / norm2
    k = Fraction(1)
    while k * k > scale:
        k /= 2
    return mx - vy * k, my + vx * k


def _poly_points(geom, flip) -> str:
    return " ".join(f"{_svg_num(x)},{_svg_diff(flip, y)}" for x, y in geom)


def render_svg(arr: Arrangement, *, cables=None, pieces=None) -> str:
    """Deterministic SVG for a curve with optional overlays.

    Draws the curve, labels each bounded face with its winding and depth,
    and optionally cable polylines and colored decomposition pieces.
    """
    x0, y0, x1, y1 = _bbox(arr)
    eps = max(x1 - x0, y1 - y0) / 60      # how far a face anchor sits inside its face
    pad = max(x1 - x0, y1 - y0) / 10 + 1
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    flip = y0 + y1           # y -> flip - y mirrors into SVG coordinates
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_svg_num(x0)} {_svg_num(y0)} '
        f'{_svg_num(x1 - x0)} {_svg_num(y1 - y0)}">',
    ]
    pts = list(arr.curve.points) + [arr.curve.points[0]]
    out.append(f'<polyline points="{_poly_points(pts, flip)}" '
               'fill="none" stroke="#222222" stroke-width="0.35"/>')

    if cables is not None:
        base = (Fraction(x0 + x1, 2), Fraction(y0) + pad / 2)
        for fid in cables.ordering:
            path = [_face_anchor(arr, fid, eps)]
            for eid in cables.cables[fid]:
                g = arr.dart_geometry(2 * eid)
                mid = len(g) // 2
                a, b = (g[mid - 1], g[mid]) if len(g) > 2 else (g[0], g[-1])
                path.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
            path.append(base)
            out.append(f'<polyline points="{_poly_points(path, flip)}" '
                       'fill="none" stroke="#2980b9" stroke-width="0.15" '
                       'stroke-dasharray="0.6 0.3"/>')

    if pieces is not None:
        for idx, piece in enumerate(pieces):
            color = _PALETTE[idx % len(_PALETTE)]
            for entry in piece.entries:
                g = arr.dart_geometry(2 * entry.dart)
                out.append(f'<polyline points="{_poly_points(g, flip)}" '
                           f'fill="none" stroke="{color}" '
                           'stroke-width="0.6" opacity="0.55"/>')

    for f in arr.faces[1:]:
        ax, ay = _face_anchor(arr, f.id, eps)
        out.append(f'<text x="{_svg_num(ax)}" y="{_svg_diff(flip, ay)}" '
                   'font-size="1.2" fill="#c0392b">'
                   f'f{f.id} w={f.winding} d={f.depth}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


@_command(click.option("--format", "fmt", type=click.Choice(["svg", "json"]),
                       default="svg", show_default=True),
          click.option("--cables/--no-cables", default=True, show_default=True,
                       help="Overlay the managed cable system."),
          click.option("--decomposition", is_flag=True,
                       help="Overlay the minimum-area decomposition pieces."))
def render(curve: PlaneCurve, fmt: str, cables: bool, decomposition: bool) -> None:
    """Render the curve (SVG by default)."""
    if decomposition:
        sod = min_area_sod(curve)
        cs, pieces = sod.cables, sod.subcurves
    else:
        (cs, _), pieces = face_word(curve), None
    svg = render_svg(cs.arr, cables=cs if cables else None, pieces=pieces)
    if fmt == "svg":
        click.echo(svg, nl=False)
    else:
        _emit({"svg": svg})


if __name__ == "__main__":
    main()
