"""Command-line driver.

Subcommands:

* ``run``     -- execute the subdivide/prune/edges/SCC pipeline (escape
                 pruning for Henon maps only) and print the per-step
                 record (optionally persist the model);
* ``bounds``  -- print the accuracy/separation constants for a map;
* ``render``  -- draw a persisted model (unstable-manifold slice for
                 maps of C^2, direct plane render otherwise);
* ``inspect`` -- summarize a persisted model file.

Exit codes: 0 success, 2 configuration error, 3 memory budget abort,
4 parse error.  A command keeps its exit code when the reader of stdout
closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .errors import MemoryBudgetError, ParseError, ResourceError
from .ia import DomainError, UsageError
from .maps import MapModel
from .bounds import enclosure_defect_sample, report_for_map, sink_section_for_map
from .chain_graph import labeling_sizes
from .pipeline import (
    PRESETS,
    RunConfig,
    check_out_path,
    load_model,
    parse_schedule,
    preset_params,
    run_pipeline,
)
from .render import RenderConfig, pick_saddle, render_plane, render_slice

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MEMORY = 3
EXIT_PARSE = 4


def _add_map_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="named map preset")
    p.add_argument("--map", dest="kind", help="map kind: henon_complex, henon_real, quad_poly, cubic_poly")
    p.add_argument("--a", help='parameter a as decimal "re" or "re,im"')
    p.add_argument("--c", help='parameter c as decimal "re" or "re,im"')
    p.add_argument("--rprime", type=float, help="trapping box radius R' (> R)")


def _map_params(args) -> dict:
    params = preset_params(args.preset, kind=args.kind, a=args.a, c=args.c, r_prime=args.rprime)
    if not params.get("kind") or params.get("c") is None:
        raise UsageError("need --preset or both --map and --c")
    return params


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    config = RunConfig(
        **_map_params(args),
        schedule=parse_schedule(args.schedule),
        delta_ratio=args.delta_ratio,
        mem_budget_mb=args.mem_budget_mb,
        model_out=args.model_out,
        save_edges=args.save_edges,
    )
    progress = (lambda s: print(s, file=sys.stderr, flush=True)) if not args.quiet else None
    try:
        result = run_pipeline(config, progress=progress)
    except MemoryBudgetError as exc:
        _print_record(exc.record, args.json)
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    _print_record(result.record, args.json)
    return EXIT_OK


# the step table of ``boxchain run``: (header, width, cell of a StepRecord)
_COLUMNS = (
    ("step", 4, lambda s: str(s.index)),
    ("mode", 10, lambda s: s.mode),
    ("boxes", 9, lambda s: str(s.boxes_original)),
    ("escape", 9, lambda s: str(s.boxes_escaping)),
    ("V(Y)", 9, lambda s: str(s.upsilon_boxes)),
    ("E(Y)", 11, lambda s: str(s.upsilon_edges)),
    ("V(G)", 9, lambda s: str(s.gamma_boxes)),
    ("E(G)", 11, lambda s: str(s.gamma_edges)),
    ("comps", 6, lambda s: str(s.n_components)),
    ("eps", 10, lambda s: f"{s.epsilon:.4g}"),
    ("eps'", 10, lambda s: f"{s.epsilon_prime:.4g}"),
    ("delta'", 10, lambda s: f"{s.delta_prime:.4g}"),
    ("sep", 5, lambda s: "yes" if s.separating else "no"),
)


def _print_record(record, as_json: bool) -> None:
    if as_json:
        for step in record.steps:
            print(json.dumps({"step": step.core_fields()}, sort_keys=True))
        final = {
            "final": {
                "separating": record.separating,
                "aborted": record.aborted,
                "r_prime": record.r_prime,
                "delta0_prime": record.delta0_prime,
                "total_wall_s": record.total_wall_s,
            }
        }
        if record.sink_section is not None:
            s = record.sink_section
            final["final"]["sink"] = {
                "lambda": s.lam,
                "tau": s.tau,
                "kappa": s.kappa,
                "eta": s.eta,
                "epsilon_star": s.epsilon_star,
            }
        print(json.dumps(final, sort_keys=True))
        return
    print("  ".join(name.ljust(width) for name, width, _ in _COLUMNS))
    for s in record.steps:
        print("  ".join(cell(s).ljust(width) for _, width, cell in _COLUMNS))
    if record.aborted:
        print(f"aborted: {record.aborted}")
    final = record.steps[-1] if record.steps else None
    sep_text = f"separating: {str(record.separating).lower()}"
    if record.sink_section is not None:
        s = record.sink_section
        eps_min = final.epsilon_min if final else float("nan")
        print(
            f"{sep_text} | guaranteed-separating box size epsilon* = "
            f"{s.epsilon_star:.6e} (current epsilon_min = {eps_min:.4e})"
        )
    else:
        print(sep_text)
    for srow in record.sink_rows:
        comps = ",".join(str(c) for c in srow.component_ids) or "-"
        print(
            f"sink orbit period {srow.period} ({srow.method}): "
            f"components {{{comps}}}"
        )
    print(f"wall time: {record.total_wall_s:.1f} s")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    """Compute the ledger and every sink section, then print them: a
    rejected input prints nothing."""
    model = MapModel(**_map_params(args))
    sink_decimals = [None]
    if not args.exact:
        try:
            decimals = tuple(int(t) for t in args.sink_decimals.split(","))
            if len(decimals) != 3:
                raise ValueError
        except ValueError:
            raise ParseError(
                f"--sink-decimals wants three comma-separated integers, got {args.sink_decimals!r}"
            ) from None
        sink_decimals.insert(0, decimals)
    lines = [
        f"map: {model.param_text()}",
        f"R = {model.R!r}",
        f"R' = {model.r_prime!r}",
        f"delta0' = {model.delta0_prime!r}",
    ]
    if args.epsilon is not None:
        rep = report_for_map(
            model,
            args.epsilon,
            epsilon_min=args.epsilon_min,
            delta_ratio=args.delta_ratio,
        )
        lines += ["-- containment ledger --", rep.text_block()]
        if args.defect:
            d = enclosure_defect_sample(model, args.epsilon)
            lines.append(f"enclosure_defect_sampled = {d!r}  (diagnostic only)")
    sections = [
        sink_section_for_map(model, m_ratio=args.delta_ratio, sink_decimals=dec)
        for dec in sink_decimals
    ]
    lines += [s.text_block() for s in sections if s is not None] or [
        "-- separation constants: no attracting fixed point (section absent) --"
    ]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _parse_window(text):
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ParseError('--window wants "cx,cy,half_width[,half_height]"')
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"bad --window value {text!r}") from None
    return vals


def _cmd_render(args) -> int:
    check_out_path(args.image_out)
    model, tree, gamma = load_model(args.model_in)
    window = _parse_window(args.window)
    if window is None:
        if model.kind == "henon_complex":
            window = [0.0, 0.0, 1.0]
        else:
            window = [0.0, 0.0, 1.1 * model.r_prime]
    cfg = RenderConfig(
        center=complex(window[0], window[1]),
        half_width=window[2],
        half_height=window[3] if len(window) == 4 else None,
        resolution=args.resolution,
        kplus_iters=args.kplus_iters,
        escape_radius=args.escape_radius,
        kplus_lighten=not args.no_kplus,
    )
    if model.kind == "henon_complex":
        saddle = pick_saddle(model)
        img = render_slice(gamma, model, saddle, cfg)
    else:
        img = render_plane(gamma, model, cfg)
    img.save(args.image_out)
    print(f"wrote {args.image_out} ({img.width}x{img.height})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def _cmd_inspect(args) -> int:
    model, tree, gamma = load_model(args.model_in)
    print(f"map: {model.param_text()}")
    print(f"R' = {model.r_prime!r}  delta0' = {model.delta0_prime!r}")
    print(
        f"boxes: {gamma.n_vertices}  edges: {gamma.n_edges}"
        f"  cross edges: {gamma.n_cross_edges}"
    )
    print(f"delta = {gamma.delta!r}  epsilon = {gamma.epsilon!r}  epsilon_min = {gamma.epsilon_min!r}")
    counts = tree.depth_counts()
    print("depths: " + ", ".join(f"{d}: {n} boxes" for d, n in counts.items()))
    sizes = labeling_sizes(gamma)
    if sizes:
        order = ", ".join(f"#{k}: {size}" for k, size in enumerate(sizes[:10]))
        print(f"components: {len(sizes)} ({order})")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boxchain",
        description="Box chain recurrent models of Henon maps and 1-D polynomial maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the box chain pipeline")
    _add_map_args(run_p)
    run_p.add_argument("--schedule", required=True, help='e.g. "uniform*6,sink_basin*2"')
    run_p.add_argument("--delta-ratio", type=float, default=RunConfig.delta_ratio,
                       dest="delta_ratio")
    run_p.add_argument("--mem-budget-mb", type=float, default=RunConfig.mem_budget_mb,
                       dest="mem_budget_mb")
    run_p.add_argument("--model-out", dest="model_out")
    run_p.add_argument("--save-edges", action="store_true", dest="save_edges")
    run_p.add_argument("--json", action="store_true", help="print the record as JSON lines")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="print accuracy/separation constants")
    _add_map_args(bounds_p)
    bounds_p.add_argument("--epsilon", type=float, help="box side for the epsilon'/delta' ledger")
    bounds_p.add_argument("--epsilon-min", type=float, dest="epsilon_min")
    bounds_p.add_argument("--delta-ratio", type=float, default=RunConfig.delta_ratio,
                          dest="delta_ratio",
                          help="ratio M: delta = epsilon_min/M in the ledger, "
                          "delta < epsilon/M in the separation constants")
    bounds_p.add_argument(
        "--sink-decimals",
        default="3,3,2",
        dest="sink_decimals",
        help="decimal places for (p, lambda1, lambda2) quantization",
    )
    bounds_p.add_argument("--exact", action="store_true",
                          help="print only the exact-eigenvalue section")
    bounds_p.add_argument("--defect", action="store_true",
                          help="print the sampled enclosure-defect diagnostic")
    bounds_p.set_defaults(func=_cmd_bounds)

    render_p = sub.add_parser("render", help="draw a persisted model")
    render_p.add_argument("--model-in", required=True, dest="model_in")
    render_p.add_argument("--image-out", required=True, dest="image_out")
    render_p.add_argument("--window", help='"cx,cy,half_width[,half_height]"')
    render_p.add_argument("--resolution", type=int, default=512)
    render_p.add_argument("--kplus-iters", type=int, default=RenderConfig.kplus_iters,
                          dest="kplus_iters")
    render_p.add_argument("--escape-radius", type=float, dest="escape_radius")
    render_p.add_argument("--no-kplus", action="store_true", dest="no_kplus")
    render_p.set_defaults(func=_cmd_render)

    inspect_p = sub.add_parser("inspect", help="summarize a persisted model")
    inspect_p.add_argument("--model-in", required=True, dest="model_in")
    inspect_p.set_defaults(func=_cmd_inspect)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # stdout is written once the command has returned its exit code, so a
    # reader that closes the pipe early cannot change that code
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, DomainError, ResourceError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped reading: the unwritten rest goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
