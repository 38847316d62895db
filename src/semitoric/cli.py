"""Command-line surface: classification, heights, polygons, image boundaries
and parameter sweeps as CSV/JSON plot data.

Exit codes: 0 success, 2 invalid arguments, 3 mathematical degeneracy,
4 I/O failure, 5 internal failure (a self-check of the computation did not
hold, or the quadrature did not converge, so no result is printed).  CSV
output uses shortest round-trip float formatting and LF line endings, so
identical arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import cartography, height, singularity
from .errors import (ConsistencyError, DegenerateSystemError,
                     NonconvergenceError, SemitoricError)
from .model import ModelParams, ParamGrid, ns_frame

JSON_SCHEMA = "semitoric-invariants/1"

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_INCONSISTENT = 5

MAX_SWEEP_CELLS = 1_000_000  # a 1000 x 1000 height sweep peaks at 223 MB
SWEEP_BLOCK_CELLS = 1 << 14  # cells per block of sweep rows joined at once


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _params_from(args) -> ModelParams:
    return ModelParams(args.R1, args.R2, args.s1, args.s2)


def _add_param_flags(sp):
    sp.add_argument("--R1", type=float, required=True)
    sp.add_argument("--R2", type=float, required=True)
    sp.add_argument("--s1", type=float, required=True)
    sp.add_argument("--s2", type=float, required=True)


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def cmd_classify(args) -> int:
    params = _params_from(args)
    reports = singularity.classify_fixed_points(params)
    e = reports[0].e_value
    verdict = singularity.check_semitoric(params, _e=e)
    if args.json:
        payload = {
            "schema": JSON_SCHEMA,
            "command": "classify",
            "params": {"R1": params.r1, "R2": params.r2,
                       "s1": params.s1, "s2": params.s2},
            "E": e,
            "n_ff": None if verdict.degenerate else verdict.n_ff,
            "degenerate": verdict.degenerate,
            "is_semitoric": verdict.is_semitoric,
            "fixed_points": [{"id": r.point_id, "kind": r.kind}
                             for r in reports],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"E = {_fmt(e)}")
        for r in reports:
            print(f"{r.point_id}: {r.kind}")
        if verdict.degenerate:
            print("degenerate: E = 0 within band; not semitoric")
        else:
            print(f"n_FF = {verdict.n_ff}")
            print("semitoric: yes")
    return EXIT_DEGENERATE if verdict.degenerate else EXIT_OK


def cmd_height(args) -> int:
    inv = {"closed": height.height_closed,
           "quadrature": height.height_quadrature,
           "both": height.height_both}[args.method](_params_from(args))
    if args.json:
        payload = {
            "schema": JSON_SCHEMA,
            "command": "height",
            "h1": inv.h1, "h2": inv.h2,
            "case": inv.case_ns,
            "method": inv.method,
            "ill_conditioned": inv.ill_conditioned,
        }
        if inv.method == "both":
            payload["discrepancy"] = inv.discrepancy
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"h1 = {_fmt(inv.h1)}")
        print(f"h2 = {_fmt(inv.h2)}")
        print(f"case = {inv.case_ns}")
        if inv.method == "both":
            print(f"|closed - oracle| = {_fmt(inv.discrepancy)}")
        if inv.ill_conditioned:
            print("ill-conditioned: E within the near-degenerate band")
    return EXIT_OK


def _parse_cuts(text: str):
    table = {"+": 1, "-": -1}
    if len(text) != 2 or any(ch not in table for ch in text):
        raise ValueError(f"cuts must be two of '+'/'-', got {text!r}")
    return table[text[0]], table[text[1]]


def cmd_polygon(args) -> int:
    params = _params_from(args)
    cuts = _parse_cuts(args.cuts)
    poly = cartography.polygon_representative(params, cuts)
    work = ns_frame(params)
    r1, R = work.r1, work.R

    def unscale(v):
        return r1 * (v[0] + 1.0 - R), r1 * v[1]

    if args.json:
        payload = {
            "schema": JSON_SCHEMA,
            "command": "polygon",
            "cuts": list(poly.cuts),
            "ff_l": list(poly.ff_l),
            "vertices_scaled": [list(v) for v in poly.vertices],
            "vertices_unscaled": [list(unscale(v)) for v in poly.vertices],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        lines = ["l_scaled,y_scaled,L,Y"]
        for v in poly.vertices:
            u = unscale(v)
            lines.append(",".join([_fmt(v[0]), _fmt(v[1]),
                                   _fmt(u[0]), _fmt(u[1])]))
        lines.append(f"# cuts = {poly.cuts}, ff_l = {poly.ff_l}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_image(args) -> int:
    params = _params_from(args)
    if args.samples < 16:
        raise ValueError("--samples must be >= 16")
    if args.samples > cartography.MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {cartography.MAX_SAMPLES}")
    ib = cartography.image_boundary(params, args.samples)
    lines = ["l,h_min,h_max,kind"]
    for l, h_min, h_max in ib.samples:
        lines.append(",".join([_fmt(l), _fmt(h_min), _fmt(h_max), "sample"]))
    for l, h in ib.ff_values:
        lines.append(",".join([_fmt(l), _fmt(h), _fmt(h), "ff"]))
    for l, h in ib.corner_values:
        lines.append(",".join([_fmt(l), _fmt(h), _fmt(h), "corner"]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _reprs(values: np.ndarray, shown: np.ndarray) -> list[str]:
    """``repr`` of each value where ``shown`` holds, '' elsewhere."""
    if shown.all():
        return list(map(repr, values.tolist()))
    column = np.full(values.size, "", dtype=object)
    column[shown] = list(map(repr, values[shown].tolist()))
    return column.tolist()


def _sweep_csv(quantity, grid: ParamGrid) -> str:
    """The text of the sweep CSV.

    The whole grid is evaluated with a few array calls; every value is
    bit-identical to the ModelParams call on its cell.  The rows are built
    by columns: each axis value and each printed value gets one ``repr``,
    and what follows a row's values (its flag and newline) is one of a few
    fixed tails, picked by an integer code per cell.  The columns of a
    block of rows are interleaved into one list by extended-slice
    assignment and joined once, so no string is built per cell and only
    one block's tokens are alive at a time.
    """
    with np.errstate(all="ignore"):
        e = singularity.discriminant_E(grid)
    if quantity == "E":
        header, tails, values = "s1,s2,E,flag", (",\n",), [e]
        shown = np.ones(e.shape, bool)
        code = np.zeros(e.shape, np.intp)
    else:
        shown = singularity.is_focus_focus(e, grid)
        code = np.where(singularity.is_degenerate(e, grid), 2, 1)
        code[shown] = 0
        if quantity == "nff":
            header, values = "s1,s2,n_ff,flag", []
            tails = ("2,\n", "0,\n", ",degenerate\n")
        else:
            header = "s1,s2,h1,h2,flag"
            tails = (",\n", ",no-focus-focus\n", ",degenerate\n",
                     ",ill-conditioned\n")
            inv = height.height_closed(grid, _e=e)
            values = [inv.h1, inv.h2]
            code[shown & inv.ill_conditioned] = 3
    tail_strings = np.array(tails, dtype=object)
    s1_cells = np.array([f"{a!r}," for a in grid.s1.ravel().tolist()],
                        dtype=object)
    s2_cells = [f"{b!r}," for b in grid.s2.ravel().tolist()]
    n2 = len(s2_cells)
    # Per cell: s1 and s2, each with its comma, the values with a comma
    # between two, and the tail.  The commas are the list's filler.
    width = 3 + max(0, 2 * len(values) - 1)
    rows = max(1, SWEEP_BLOCK_CELLS // n2)
    chunks = [header + "\n"]
    for i in range(0, len(s1_cells), rows):
        block = slice(i, i + rows)
        s1_block = s1_cells[block]
        body = [","] * (len(s1_block) * n2 * width)
        body[0::width] = s1_block.repeat(n2).tolist()
        body[1::width] = s2_cells * len(s1_block)
        for k, v in enumerate(values):
            body[2 + 2 * k::width] = _reprs(v[block].ravel(),
                                            shown[block].ravel())
        body[width - 1::width] = tail_strings[code[block].ravel()].tolist()
        chunks.append("".join(body))
    return "".join(chunks)


def cmd_sweep(args) -> int:
    for count in (args.s1_count, args.s2_count):
        if count < 2:
            raise ValueError("axis counts must be >= 2")
    if args.s1_count * args.s2_count > MAX_SWEEP_CELLS:
        raise ValueError(f"--s1-count * --s2-count must be <= "
                         f"{MAX_SWEEP_CELLS}")
    for lo, hi in ((args.s1_start, args.s1_stop),
                   (args.s2_start, args.s2_stop)):
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0 and lo < hi):
            raise ValueError("axis ranges must be increasing within [0, 1]")
    s1s = np.linspace(args.s1_start, args.s1_stop, args.s1_count)
    s2s = np.linspace(args.s2_start, args.s2_stop, args.s2_count)
    _emit(_sweep_csv(args.quantity, ParamGrid(args.R1, args.R2, s1s, s2s)),
          args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitoric",
        description="Invariants of a coupled-spin family on S2 x S2: "
                    "singularity classification, height invariant, polygon "
                    "representatives, momentum-image data.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="fixed-point types and n_FF")
    _add_param_flags(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("height", help="height invariant (h1, h2)")
    _add_param_flags(sp)
    sp.add_argument("--method", choices=("closed", "quadrature", "both"),
                    default="both")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_height)

    sp = sub.add_parser("polygon", help="polygon representative vertices")
    _add_param_flags(sp)
    sp.add_argument("--cuts", default="++",
                    help="cut directions, e.g. '++', '+-'")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_polygon)

    sp = sub.add_parser("image", help="momentum-map image boundary CSV")
    _add_param_flags(sp)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_image)

    sp = sub.add_parser("sweep", help="parameter-grid CSV of a quantity")
    sp.add_argument("--R1", type=float, required=True)
    sp.add_argument("--R2", type=float, required=True)
    sp.add_argument("--quantity", choices=("nff", "height", "E"),
                    required=True)
    sp.add_argument("--s1-start", type=float, default=0.0)
    sp.add_argument("--s1-stop", type=float, default=1.0)
    sp.add_argument("--s1-count", type=int, default=51)
    sp.add_argument("--s2-start", type=float, default=0.0)
    sp.add_argument("--s2-stop", type=float, default=1.0)
    sp.add_argument("--s2-count", type=int, default=51)
    sp.add_argument("--parallel", action="store_true",
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)
    return parser


# The flags of build_parser() that take a value, except --cuts.
_VALUE_FLAGS = frozenset({
    "--R1", "--R2", "--s1", "--s2", "--method", "--out", "--samples",
    "--quantity", "--s1-start", "--s1-stop", "--s1-count", "--s2-start",
    "--s2-stop", "--s2-count"})


def _prepare_argv(argv):
    """argv for argparse, and the last polygon ``--cuts`` value (or None).

    argparse reads a value that starts with '-' and is not a plain number
    as an option, so ``--R2 -inf`` or ``--R2 -1e3`` would fail with
    "expected one argument": such a flag and its value are joined as
    ``--FLAG=VALUE``.  argparse also drops a value of '--', so for
    ``polygon``, '--cuts X' and '--cuts=X' are taken out of argv and X is
    returned.
    """
    polygon = argv[:1] == ["polygon"]
    rest, cuts = [], None
    args = iter(argv)
    for arg in args:
        if polygon and arg.startswith("--cuts="):
            cuts = arg[len("--cuts="):]
        elif (polygon and arg == "--cuts"
              and (value := next(args, None)) is not None):
            cuts = value
        elif (rest and rest[-1] in _VALUE_FLAGS and arg.startswith("-")
              and not arg.startswith("--")):
            rest[-1] += "=" + arg
        else:
            rest.append(arg)
    return rest, cuts


def main(argv=None) -> int:
    argv, cuts = _prepare_argv(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    if cuts is not None:
        args.cuts = cuts
    try:
        return args.func(args)
    except DegenerateSystemError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConsistencyError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NonconvergenceError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, SemitoricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
