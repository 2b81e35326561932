"""Command-line pipelines: ingest/synthesize, repair, privatize, measure.

Subcommands: ingest, synth, repair, privatize, release, measure, sweep.
Exit codes: 0 success, 2 configuration or resource error, 3 data error, 4
empty release (the warning-as-status default; set "empty_release_ok": true
to get 0).  An input that cannot be read, an --out that cannot be created,
a config or schema file that is not UTF-8 JSON, a forked worker that dies
and memory that runs out exit 2.  A CSV or neighbourhood file that is not
UTF-8, holds a NUL byte or has a field over the csv module's limit exits 3.
main is the one place that maps exceptions to these codes.  A command makes
--out only once it has computed every output: exiting 2 or 3, it makes none.
Every run is reproducible bit for bit given its config and seed: all
randomized stages draw from labelled substreams of one master seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .config import file_path, finite, flag, labels, load_json, mapping, whole
from .csvio import text_chunks
from .errors import ConfigError, DataError
from .histogram import AttributeSchema, Histogram, read_histogram_csv, write_histogram_csv
from .ingest import (
    BikeConfig,
    IngestResult,
    SynthConfig,
    TaxiConfig,
    bike_preprocess,
    synth_generate,
    synthetic_od_seed,
    taxi_preprocess,
)
from .metrics import DistanceReport, bootstrap_distances, build_distance_report, distance_report, pair_distances
from .parallel import forked_map
from .privacy import PrivacyParams, ReleaseResult, privatize
from .repair import FractionalRepairResult, RepairSpec, random_x_baseline, repair
from .rng import derive_seed

# The stages each order runs, first to last.  An order fits a config exactly
# when its stages are the ones the config sets up; with no order given, the
# first order that fits is used.
STAGES = {
    "privacy-first": ("privacy", "repair"),
    "bias-first": ("repair", "privacy"),
    "repair-only": ("repair",),
    "privacy-only": ("privacy",),
}
ORDERS = tuple(STAGES)

# The keys a config object may hold: a misspelt "privacy" must not drop a stage.
PIPELINE_KEYS = ("input", "schema", "synth", "ingest", "repair", "privacy", "order", "bootstrap", "seed",
                 "empty_release_ok")
PRIVACY_KEYS = ("epsilon", "rho", "n")
SYNTH_KEYS = ("generate_od", "od_seed", "od_schema", "trips", "mode", "rating_distribution",
              "rating_distributions", "seed", "gender_domain", "rating_domain")


def _write_outputs(out_dir, files: Mapping[str, object]) -> None:
    """Make out_dir and write into it each value of files, a mapping from file name to value.

    A Histogram is written as a histogram CSV, an AttributeSchema as its
    JSON, a list of rows (header first) as a CSV, and any other value as
    JSON.  Every command calls this once, after computing all its outputs,
    so a run that stops on an error before then leaves no output directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, value in files.items():
        path = out / name
        if isinstance(value, Histogram):
            write_histogram_csv(value, path)
        elif isinstance(value, AttributeSchema):
            value.save(path)
        elif isinstance(value, list):
            with open(path, "w", newline="", encoding="utf8") as f:
                csv.writer(f).writerows(value)
        else:
            path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf8")


def _parse_privacy(obj, keys=PRIVACY_KEYS) -> dict:
    """The epsilon, rho and optional n of a privacy config, checked and typed.

    The one reader of privacy configs (release, sweep and privatize), so the
    result can be passed as PrivacyParams.for_histogram(h, **parsed).
    """
    obj = mapping(obj, "privacy", keys)
    return {
        "epsilon": finite(obj.get("epsilon"), "privacy.epsilon"),
        "rho": finite(obj.get("rho"), "privacy.rho"),
        "n": None if obj.get("n") is None else whole(obj["n"], "privacy.n"),
    }


def _parse_repair(obj) -> RepairSpec:
    """The x, y and z of a repair spec (release, sweep and repair), checked and typed.

    Attribute names are checked against a schema only once the input has
    loaded, so an unknown name stays a data error.
    """
    obj = mapping(obj, "repair", ("x", "y", "z"))
    z = labels(obj.get("z", []), "repair.z", empty=True)
    x, y, *_ = labels([obj.get("x"), obj.get("y"), *z], "repair x, y and z")  # RepairSpec's rule, as a ConfigError
    return RepairSpec(x, y, z)


@dataclass(frozen=True)
class PipelineConfig:
    """One release pipeline: input source, stages, order, bootstrap options.

    `privacy` holds the epsilon, rho and n that _parse_privacy returns.
    """

    schema_path: str | None
    input_path: str | None
    synth: dict | None
    ingest: dict | None
    repair_spec: RepairSpec | None
    privacy: dict | None
    order: str
    replicates: int
    seed: int
    empty_release_ok: bool
    base_dir: str | None = None

    @classmethod
    def from_json_obj(cls, obj: Mapping, base_dir: Path | None = None) -> "PipelineConfig":
        obj = mapping(obj, "pipeline config", PIPELINE_KEYS)
        given = {key for key, value in obj.items() if value is not None}  # a null field is an absent one
        sources = [k for k in ("input", "synth", "ingest") if k in given]
        if len(sources) != 1:
            raise ConfigError(f"exactly one of input/synth/ingest must be set, got {sources}")
        if ("input" in given) != ("schema" in given):
            raise ConfigError("an input histogram needs a schema path, and only an input histogram reads one")

        configured = {name for name in ("repair", "privacy") if name in given}
        if not configured:
            raise ConfigError("at least one of repair/privacy must be configured")

        order = obj.get("order")
        if order is None:
            order = next(o for o, stages in STAGES.items() if set(stages) == configured)
        if order not in ORDERS:
            raise ConfigError(f"order must be one of {ORDERS}, got {order!r}")
        if set(STAGES[order]) != configured:
            raise ConfigError(
                f"order {order!r} needs exactly {' and '.join(sorted(STAGES[order]))} configured, "
                f"got {' and '.join(sorted(configured))}"
            )

        bootstrap = mapping(obj.get("bootstrap", {}), "bootstrap", ("replicates",))
        replicates = whole(bootstrap.get("replicates", 200), "bootstrap.replicates")
        if replicates < 2:
            raise ConfigError(f"bootstrap.replicates must be at least 2, got {replicates}")
        return cls(
            schema_path=file_path(obj["schema"], "schema", base_dir) if "schema" in given else None,
            input_path=file_path(obj["input"], "input", base_dir) if "input" in given else None,
            synth=mapping(obj["synth"], "synth") if "synth" in given else None,
            ingest=mapping(obj["ingest"], "ingest") if "ingest" in given else None,
            repair_spec=_parse_repair(obj["repair"]) if "repair" in given else None,
            privacy=_parse_privacy(obj["privacy"]) if "privacy" in given else None,
            order=order,
            replicates=replicates,
            seed=whole(obj.get("seed", 0), "seed"),
            empty_release_ok=flag(obj.get("empty_release_ok", False), "empty_release_ok"),
            base_dir=str(base_dir) if base_dir is not None else None,
        )

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_json_obj(load_json(path), base_dir=Path(path).parent)


_GENERATE_OD = {"n_neighborhoods": whole, "n_pairs": whole, "total": whole, "seed": whole, "skew": finite,
                "uniform_mix": finite}  # the synthetic_od_seed parameters, with their readers


def _build_synth_config(obj: Mapping, base_dir: Path | str | None = None) -> SynthConfig:
    obj = mapping(obj, "synth", SYNTH_KEYS)
    if obj.get("generate_od") is not None:
        generate = mapping(obj["generate_od"], "synth.generate_od", tuple(_GENERATE_OD))
        od = synthetic_od_seed(**{key: _GENERATE_OD[key](value, f"synth.generate_od.{key}")
                                  for key, value in generate.items()})
    elif obj.get("od_seed") is not None:
        od_schema = file_path(obj.get("od_schema"), "synth.od_schema", base_dir)
        od = read_histogram_csv(file_path(obj["od_seed"], "synth.od_seed", base_dir),
                                AttributeSchema.load(od_schema))
    else:
        raise ConfigError("synth config needs od_seed or generate_od")
    domains = {key: labels(obj[key], f"synth.{key}") for key in ("gender_domain", "rating_domain") if key in obj}
    return SynthConfig(
        od_seed=od,
        trips=whole(obj.get("trips"), "synth.trips"),
        mode=obj.get("mode", "uncorrelated"),
        rating_distributions=obj.get("rating_distribution", obj.get("rating_distributions")),
        seed=whole(obj.get("seed", 0), "synth.seed"),
        **domains,
    )


def _run_ingest(obj: Mapping, base_dir: Path | str | None = None) -> IngestResult:
    kind = mapping(obj, "ingest").get("kind")
    if kind not in ("taxi", "bike"):
        raise ConfigError(f"ingest kind must be taxi or bike, got {kind!r}")
    trips_path = file_path(obj.get("trips_csv"), f"{kind}.trips_csv", base_dir)
    if kind == "taxi":
        return taxi_preprocess(trips_path, TaxiConfig.from_json_obj(obj))
    riders_path = file_path(obj.get("riders_csv"), "bike.riders_csv", base_dir)
    if "neighborhoods_file" in obj:
        if "neighborhoods" in obj:
            raise ConfigError("bike: give neighborhoods or neighborhoods_file, not both")
        listed = "".join(text_chunks(file_path(obj["neighborhoods_file"], "bike.neighborhoods_file", base_dir)))
        obj = {**obj, "neighborhoods": [line.strip() for line in listed.splitlines() if line.strip()]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # each is printed once below, as `warning: ...`
        result = bike_preprocess(trips_path, riders_path, BikeConfig.from_json_obj(obj))
    for msg in result.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return result


def _load_pipeline_input(cfg: PipelineConfig) -> Histogram:
    if cfg.input_path is not None:
        return read_histogram_csv(cfg.input_path, AttributeSchema.load(cfg.schema_path))
    if cfg.synth is not None:
        return synth_generate(_build_synth_config(cfg.synth, cfg.base_dir))
    return _run_ingest(cfg.ingest, cfg.base_dir).histogram


@dataclass
class StageOutcome:
    final: Histogram
    repair_result: FractionalRepairResult | None
    release_result: ReleaseResult | None
    privacy_params: PrivacyParams | None
    warnings: list[str]


def _run_stages(h: Histogram, cfg: PipelineConfig, seed: int) -> StageOutcome:
    """Execute the configured stages in order on h; stops on an empty result."""
    current = h
    outcome = StageOutcome(h, None, None, None, [])
    for stage in STAGES[cfg.order]:
        try:
            if stage == "repair":
                outcome.repair_result = repair(current, cfg.repair_spec)
                current = outcome.repair_result.rounded
            else:
                params = PrivacyParams.for_histogram(current, **cfg.privacy)
                outcome.privacy_params = params
                outcome.release_result = privatize(current, params, derive_seed(seed, "privacy"))
                current = outcome.release_result.histogram
        except DataError as exc:
            raise DataError(f"{stage} stage: {exc}") from exc
        if len(current) == 0:
            outcome.warnings.append(
                f"{stage} stage produced an empty histogram; remaining stages skipped"
            )
            break
    outcome.final = current
    return outcome


def _repair_report(result: FractionalRepairResult, total_before) -> dict:
    return {
        "cmi_before": result.cmi_before,
        "cmi_after": result.cmi_after,
        "kl": result.kl_divergence,
        "total_before": total_before,
        "total_after_rounded": result.rounded.total,
    }


def _release_report(result: ReleaseResult, params: PrivacyParams) -> dict:
    report = result.to_report_obj()
    report["params"] = {"epsilon": params.epsilon, "rho": params.rho, "n": params.n, "tau": params.tau}
    return report


def _empty_distance_report(replicates: int, seed: int) -> dict:
    return {
        "pwkt": None,
        "hellinger": None,
        "band": None,
        "baseline": None,
        "replicates": replicates,
        "seed": seed,
        "warning": "empty release: no data for which to calculate distances",
    }


def run_release(cfg: PipelineConfig, out_dir, seed: int | None = None) -> int:
    """Full pipeline: load input, run stages, write histogram and reports.

    Returns the process exit code (0, or 4 for an empty release unless the
    config opts out of warning-as-status).
    """
    seed = cfg.seed if seed is None else seed
    original = _load_pipeline_input(cfg)
    outcome = _run_stages(original, cfg, seed)
    files = {"schema.json": original.schema, "released.csv": outcome.final}
    if outcome.repair_result is not None:
        files["repair_report.json"] = _repair_report(outcome.repair_result, original.total)
    if outcome.release_result is not None:
        files["release_report.json"] = _release_report(outcome.release_result, outcome.privacy_params)

    if len(outcome.final) == 0:
        files["distance_report.json"] = _empty_distance_report(cfg.replicates, seed)
    else:
        baseline = (random_x_baseline(original, cfg.repair_spec, derive_seed(seed, "baseline"))
                    if cfg.repair_spec is not None else None)
        report = build_distance_report(original, outcome.final, replicates=cfg.replicates,
                                       seed=derive_seed(seed, "bootstrap"), baseline=baseline)
        files["distance_report.json"] = report.to_json_obj()
    _write_outputs(out_dir, files)
    for msg in outcome.warnings:  # a stage leaves a warning only when it empties the release
        print(f"warning: {msg}", file=sys.stderr)
    return 0 if len(outcome.final) or cfg.empty_release_ok else 4


def run_measure(
    schema_path,
    reference_path,
    other_path,
    replicates: int = 200,
    seed: int = 0,
    out_dir=None,
    write_replicates: bool = False,
) -> DistanceReport:
    """Distance report between two histogram files over one schema."""
    schema = AttributeSchema.load(schema_path)
    reference = read_histogram_csv(reference_path, schema)
    other = read_histogram_csv(other_path, schema)
    distances = bootstrap_distances(reference, {"pwkt": "pwkt", "hellinger": "hellinger"}, replicates, seed)
    report = distance_report(reference, other, distances, seed)
    if out_dir is not None:
        files = {"distance_report.json": report.to_json_obj()}
        if write_replicates:
            pairs = zip(distances["pwkt"], distances["hellinger"])
            files["replicate_distances.csv"] = [["replicate", "pwkt", "hellinger"],
                                                *([i, f"{p:.9f}", f"{h:.9f}"] for i, (p, h) in enumerate(pairs))]
        _write_outputs(out_dir, files)
    return report


def run_sweep(
    cfg: PipelineConfig,
    epsilons: Sequence[float],
    rhos: Sequence[float],
    trials: int = 10,
    out_path=None,
    seed: int | None = None,
) -> list[dict]:
    """Grid of releases over (epsilon, rho) with `trials` seeds per cell.

    Each row holds the distances of that trial's final output against the
    original input; cells whose threshold wipes out every bucket report
    bins_released = 0 and NaN distances.  The trials run through
    parallel.forked_map, and each trial draws from its own seed, so the
    rows do not depend on how many processes run them.
    """
    if cfg.privacy is None:
        raise ConfigError("sweep requires privacy parameters in the pipeline config")
    if not epsilons or not rhos or trials < 1:
        raise ConfigError("sweep needs nonempty epsilon/rho grids and at least one trial")
    seed = cfg.seed if seed is None else seed
    original = _load_pipeline_input(cfg)
    cells = [(eps, rho, trial, replace(cfg, privacy=_parse_privacy({**cfg.privacy, "epsilon": eps, "rho": rho})))
             for eps in epsilons for rho in rhos for trial in range(trials)]  # configs parsed before any fork

    def run(cell) -> dict:
        eps, rho, trial, cell_cfg = cell
        cell_seed = derive_seed(seed, "sweep", float(eps), float(rho), trial)
        final = _run_stages(original, cell_cfg, cell_seed).final
        distances = pair_distances(original, final) if len(final) else {"pwkt": math.nan, "hellinger": math.nan}
        return {"epsilon": eps, "rho": rho, "trial": trial, **distances, "bins_released": len(final)}

    rows = forked_map(run, cells)

    if out_path is not None:
        out_path = Path(out_path)
        header = ["epsilon", "rho", "trial", "pwkt", "hellinger", "bins_released"]
        table = [[row["epsilon"], row["rho"], row["trial"], f"{row['pwkt']:.9f}", f"{row['hellinger']:.9f}",
                  row["bins_released"]] for row in rows]  # a NaN distance formats as "nan"
        _write_outputs(out_path.parent, {out_path.name: [header, *table]})
    return rows


def _cmd_ingest(args) -> int:
    result = _run_ingest(load_json(args.config), base_dir=Path(args.config).parent)
    _write_outputs(args.out, {
        "schema.json": result.histogram.schema,
        "histogram.csv": result.histogram,
        "ingest_report.json": {"stats": result.stats.to_json_obj(), "warnings": list(result.warnings)},
    })
    return 0


def _cmd_synth(args) -> int:
    obj = mapping(load_json(args.config), "synth")
    if args.seed is not None:
        obj = {**obj, "seed": args.seed}
    h = synth_generate(_build_synth_config(obj, base_dir=Path(args.config).parent))
    _write_outputs(args.out, {"schema.json": h.schema, "histogram.csv": h})
    return 0


def _cmd_repair(args) -> int:
    spec = _parse_repair(load_json(args.config))
    h = read_histogram_csv(args.input, AttributeSchema.load(args.schema))
    result = repair(h, spec, rounding=args.rounding)
    _write_outputs(args.out, {"repaired.csv": result.rounded, "fractional.csv": result.fractional,
                              "repair_report.json": _repair_report(result, h.total)})
    return 0


def _cmd_privatize(args) -> int:
    obj = load_json(args.config)
    privacy = _parse_privacy(obj, (*PRIVACY_KEYS, "seed"))
    seed = args.seed if args.seed is not None else whole(obj.get("seed", 0), "seed")
    h = read_histogram_csv(args.input, AttributeSchema.load(args.schema))
    params = PrivacyParams.for_histogram(h, **privacy)
    result = privatize(h, params, seed)
    _write_outputs(args.out, {"released.csv": result.histogram, "release_report.json": _release_report(result, params)})
    if len(result.histogram) == 0:
        print("warning: empty release (threshold exceeded every bucket)", file=sys.stderr)
        return 0 if args.ok_empty else 4
    return 0


def _cmd_release(args) -> int:
    cfg = PipelineConfig.load(args.config)
    return run_release(cfg, args.out, seed=args.seed)


def _cmd_measure(args) -> int:
    run_measure(
        args.schema,
        args.reference,
        args.other,
        replicates=args.replicates,
        seed=args.seed if args.seed is not None else 0,
        out_dir=args.out,
        write_replicates=args.replicates_csv,
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = PipelineConfig.load(args.config)
    try:
        epsilons, rhos = ([float(v) for v in grid.split(",") if v.strip()] for grid in (args.epsilons, args.rhos))
    except ValueError as exc:
        raise ConfigError(f"--epsilons and --rhos: expected comma-separated numbers ({exc})") from None
    run_sweep(cfg, epsilons, rhos, trials=args.trials, out_path=Path(args.out) / "sweep.csv", seed=args.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odrelease",
        description="Repair and privately release origin-destination trip histograms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("ingest", help="bucketize raw trip CSVs into a histogram")
    common(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("synth", help="generate the synthetic ride-hailing dataset")
    common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("repair", help="remove one causal dependency from a histogram")
    common(p)
    p.add_argument("--schema", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--rounding", choices=("largest_remainder", "half_even"), default="largest_remainder")
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("privatize", help="differentially private release of a histogram")
    common(p)
    p.add_argument("--schema", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--ok-empty", action="store_true", help="exit 0 instead of 4 on an empty release")
    p.set_defaults(fn=_cmd_privatize)

    p = sub.add_parser("release", help="full pipeline: input, stages, reports")
    common(p)
    p.set_defaults(fn=_cmd_release)

    p = sub.add_parser("measure", help="distance report between two histogram files")
    p.add_argument("reference")
    p.add_argument("other")
    p.add_argument("--schema", required=True)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--replicates-csv", action="store_true", help="also write per-replicate distances")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("sweep", help="grid of releases over epsilon and rho")
    common(p)
    p.add_argument("--epsilons", required=True, help="comma-separated epsilon grid")
    p.add_argument("--rhos", required=True, help="comma-separated rho grid")
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            whole(args.seed, "--seed")
        return args.fn(args)
    except (ChildProcessError, MemoryError) as exc:  # a worker that died (an OSError) or memory that ran out
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ConfigError, OSError) as exc:  # an OSError names its path: an input not read, an --out not made
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, csv.Error) as exc:  # csv.Error: a CSV the csv module cannot parse, such as an overlong field
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
