"""Command-line front end.

Subcommands: gen, pierce, helly-check, floating-body, tverberg, net,
selection, colorful-helly, experiment.  Inputs and outputs are the versioned
JSON documents of jsonio; results go to --out or stdout.

Exit codes for pierce and helly-check: 0 verified, 2 hypothesis violated,
3 candidate pool insufficient, 4 conclusion failed (helly-check only).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .combinat import (
    CombinatError,
    Family,
    selection,
    tverberg_partition,
    weak_net,
)
from .experiment import run_experiment, report_to_csv, report_to_json
from .floating import floating_body, named_directions, perturbed_directions
from .generators import GeneratorError, GeneratorSpec, generate
from .geometry import GeometryError
from .jsonio import (
    SCHEMAS,
    JsonError,
    body_from_json,
    body_to_json,
    certificate_to_json,
    dumps,
    family_from_json,
    family_to_json,
    frac_str,
    jsonify,
    load,
    measure_from_json,
    parse_frac,
)
from .measures import Measure, MeasureError, evaluate, lattice_points
from .piercing import (
    HypothesisError,
    PiercingError,
    PoolError,
    colorful_helly,
    helly_check,
    pq_pierce,
)
from .svgout import render_svg

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_POOL = 3
EXIT_CONCLUSION = 4


def _emit(doc: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _load_family(path) -> Family:
    return family_from_json(load(path))


def _load_measure(path) -> Measure:
    if path is None:
        return Measure.nonempty()
    return measure_from_json(load(path))


def _direction(text):
    parts = text.split(",")
    if len(parts) < 2:
        raise JsonError(f"direction needs comma-separated coordinates: {text!r}")
    return tuple(parse_frac(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="quanthelly")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family from a seeded spec")
    g.add_argument("--kind", required=True)
    g.add_argument("--params", default="{}", help="JSON object of parameters")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")

    p = sub.add_parser("pierce", help="run the full (p,q) piercing pipeline")
    p.add_argument("--family", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--eps", default="1/8")
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--svg")

    hc = sub.add_parser("helly-check", help="check an h-wise Helly implication")
    hc.add_argument("--family", required=True)
    hc.add_argument("--measure", required=True)
    hc.add_argument("--h", type=int, required=True)
    hc.add_argument("--lambda", dest="lam", default="1")
    hc.add_argument("--eps", default="0")
    hc.add_argument("--out")

    fb = sub.add_parser("floating-body", help="compute a floating body")
    fb.add_argument("--body", required=True)
    fb.add_argument("--measure", required=True)
    fb.add_argument("--eps", default="1/8")
    fb.add_argument("--dirs", default="axis-diag")
    fb.add_argument("--out")
    fb.add_argument("--svg")

    tv = sub.add_parser("tverberg", help="partition a family with a shared witness")
    tv.add_argument("--family", required=True)
    tv.add_argument("--parts", type=int, required=True)
    tv.add_argument("--measure")
    tv.add_argument("--eps1", default="1/8")
    tv.add_argument("--eps2", default="1/8")
    tv.add_argument("--out")

    nt = sub.add_parser("net", help="greedy weak net construction")
    nt.add_argument("--family", required=True)
    nt.add_argument("--measure")
    nt.add_argument("--eps", default="1/8")
    nt.add_argument("--epsp", default="1/2")
    nt.add_argument("--out")

    se = sub.add_parser("selection", help="one witness in many tuple hulls")
    se.add_argument("--family", required=True)
    se.add_argument("--measure")
    se.add_argument("--eps", default="1/8")
    se.add_argument("--parts", type=int, default=None)
    se.add_argument("--out")

    ch = sub.add_parser("colorful-helly", help="find a fully-pierced color class")
    ch.add_argument("--classes", nargs="+", required=True)
    ch.add_argument("--measure", required=True)
    ch.add_argument("--lambda", dest="lam", default="1")
    ch.add_argument("--eps", default="0")
    ch.add_argument("--v", default="1,0")
    ch.add_argument("--out")

    ex = sub.add_parser("experiment", help="run a campaign from a config file")
    ex.add_argument("--config", required=True)
    ex.add_argument("--seed", type=int, default=None)
    ex.add_argument("--format", choices=("json", "csv"), default="json")
    ex.add_argument("--out")

    return top


def _cmd_gen(args) -> int:
    import json as _json

    params = _json.loads(args.params)
    spec = GeneratorSpec(args.kind, params, args.seed)
    fam = generate(spec)
    doc = family_to_json(fam)
    doc["generator"] = {
        "schema": SCHEMAS["generator"],
        "kind": spec.kind,
        "params": jsonify(spec.params),
        "seed": spec.seed,
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_pierce(args) -> int:
    fam = _load_family(args.family)
    msr = _load_measure(args.measure)
    cert = pq_pierce(
        fam, args.p, args.q, msr, parse_frac(args.lam), parse_frac(args.eps),
        args.smax,
    )
    _emit(dumps(certificate_to_json(cert)), args.out)
    if args.svg:
        objs = list(fam.members) + list(cert.witnesses)
        styles = [{"stroke": "#888888"}] * len(fam.members) + [
            {"stroke": "#d62728", "fill": "#d62728", "opacity": "0.4"}
        ] * len(cert.witnesses)
        with open(args.svg, "w") as fh:
            fh.write(render_svg(objs, styles))
    return EXIT_OK


def _cmd_helly_check(args) -> int:
    fam = _load_family(args.family)
    msr = _load_measure(args.measure)
    rep = helly_check(fam, args.h, msr, parse_frac(args.lam), parse_frac(args.eps))
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "helly-check",
        "holds": rep.holds,
        "hypothesis_holds": rep.hypothesis_holds,
        "conclusion_holds": rep.conclusion_holds,
        "violator": list(rep.violator) if rep.violator else None,
        "conclusion_value": jsonify(rep.conclusion_value),
        "exhaustive": rep.exhaustive,
    }
    _emit(dumps(doc), args.out)
    if not rep.hypothesis_holds:
        return EXIT_HYPOTHESIS
    if rep.conclusion_holds is False:
        return EXIT_CONCLUSION
    return EXIT_OK


def _cmd_floating_body(args) -> int:
    body = body_from_json(load(args.body))
    msr = _load_measure(args.measure)
    dirs = named_directions(args.dirs, body.dim)
    if msr.kind == "lattice":
        dirs = perturbed_directions(dirs, lattice_points(body, msr))
    fb = floating_body(body, msr, parse_frac(args.eps), dirs)
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "floating-body",
        "body": body_to_json(fb.body),
        "delta": jsonify(fb.delta),
        "cuts": [
            {"direction": [frac_str(c) for c in v], "halfspace": jsonify(h)}
            for v, h in fb.cuts
        ],
    }
    _emit(dumps(doc), args.out)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(
                render_svg(
                    [body, fb.body],
                    [{"stroke": "#888888"}, {"stroke": "#d62728"}],
                )
            )
    return EXIT_OK


def _cmd_tverberg(args) -> int:
    fam = _load_family(args.family)
    msr = _load_measure(args.measure)
    res = tverberg_partition(
        fam, args.parts, msr, parse_frac(args.eps1), parse_frac(args.eps2)
    )
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "tverberg",
        "partition": [list(part) for part in res.partition],
        "witness": body_to_json(res.witness),
        "achieved": jsonify(res.achieved),
        "transcript": jsonify(res.transcript),
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_net(args) -> int:
    fam = _load_family(args.family)
    msr = _load_measure(args.measure)
    res = weak_net(fam, msr, parse_frac(args.eps), parse_frac(args.epsp))
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "net",
        "net": [body_to_json(b) for b in res.net],
        "achieved": [jsonify(v) for v in res.achieved],
        "iterations": res.iterations,
        "certified": res.certified,
        "cap": res.cap,
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_selection(args) -> int:
    fam = _load_family(args.family)
    msr = _load_measure(args.measure)
    res = selection(fam, msr, parse_frac(args.eps), args.parts)
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "selection",
        "witness": body_to_json(res.witness),
        "tuples": [list(t) for t in res.tuples],
        "r": res.r,
        "rho_achieved": frac_str(res.rho_achieved),
        "exhaustive": res.exhaustive,
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_colorful_helly(args) -> int:
    classes = [_load_family(path) for path in args.classes]
    msr = _load_measure(args.measure)
    res = colorful_helly(
        classes, msr, parse_frac(args.lam), parse_frac(args.eps),
        _direction(args.v),
    )
    doc = {
        "schema": SCHEMAS["result"],
        "operation": "colorful-helly",
        "class_index": res.class_index,
        "witness": body_to_json(res.witness),
        "choice": [list(c) for c in res.choice],
        "transcript": jsonify(res.transcript),
    }
    _emit(dumps(doc), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = load(args.config)
    if "schema" in config and config["schema"] != SCHEMAS["experiment"]:
        raise JsonError(f"expected {SCHEMAS['experiment']}, got {config['schema']!r}")
    if args.seed is not None:
        config["seed"] = args.seed
    report = run_experiment(config)
    if args.format == "csv":
        _emit(report_to_csv(report), args.out)
    else:
        _emit(dumps(report_to_json(report)), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "pierce": _cmd_pierce,
        "helly-check": _cmd_helly_check,
        "floating-body": _cmd_floating_body,
        "tverberg": _cmd_tverberg,
        "net": _cmd_net,
        "selection": _cmd_selection,
        "colorful-helly": _cmd_colorful_helly,
        "experiment": _cmd_experiment,
    }[args.command]
    try:
        return handler(args)
    except HypothesisError as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except PoolError as e:
        print(f"pool insufficient: {e}", file=sys.stderr)
        return EXIT_POOL
    except (
        PiercingError,
        CombinatError,
        MeasureError,
        GeometryError,
        GeneratorError,
        JsonError,
        OSError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
