"""Command-line front end.

Subcommands: rate, optimize, sweep, simulate, aep, codec, timing. Most read
a YAML config (schema in the README); timing also runs from bare flags. All
randomness flows from one seed (--seed overrides the config), output is a
human summary by default or CSV with --format csv / --out, and CSV bytes are
stable for a fixed config and seed: fixed column order, 9 significant
digits, newline endings, and a leading comment recording the config hash,
seed, and version.

Exit codes: 0 success, 1 validation or usage problems, 2 constraint
violations (infeasible policy, wrong battery geometry), 3 numerical
failures (no steady state, truncation horizon too small).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .battery import (
    ArrivalModel,
    BatterySpec,
    StatePolicy,
    analyze_chain,
    pair_chain,
)
from .errors import ConstraintError, EhRelayError, NumericalError, ValidationError
from .mclab import (
    CodecConfig,
    RunConfig,
    empirical_aep,
    relay_codec_trial,
    simulate_states,
)
from .optimize import LossShape, OptimizeOptions, SweepSpec, optimize, sweep
from .pmf import BinaryChannel, Pmf
from .rates import (
    Model,
    RateBreakdown,
    both_hops_rate,
    feasibility_check,
    per_level_source_entropy_bits,
    random_loss_rate,
    second_hop_rate,
)
from .timing import TimingScheme, ZNoise, _wait_rule, t_pmf, timing_rate, z_pmf

_RATE_COLUMNS = ("model", "cost", "capacity", "relay_bound", "receiver_bound",
                 "rate", "achievable", "binding")
_OPT_COLUMNS = _RATE_COLUMNS + ("policy_digest", "evaluations")
_SWEEP_COLUMNS = ("model", "cost", "capacity", "relay_bound", "receiver_bound",
                  "rate", "achievable", "binding", "policy_digest")
_SIM_COLUMNS = ("level", "frequency", "stationary", "abs_deviation")
_AEP_COLUMNS = ("trial", "n", "marginal_bits_per_symbol", "joint_bits_per_symbol")
_CODEC_COLUMNS = ("block", "n", "trials", "p_incomplete", "p_ambiguous", "p_either")
_TIMING_COLUMNS = ("series", "value", "probability")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        text = f"{float(value):.9g}"
        return "0" if text in ("-0", "-0.0") else text
    return str(value)


def _write_csv(rows, columns, meta: dict, stream) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in meta.items())
    stream.write(f"# {pairs}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _emit(rows, columns, meta, pretty_lines, args) -> None:
    wants_csv = args.out is not None or args.format == "csv"
    if not wants_csv:
        for line in pretty_lines:
            print(line)
        return
    if args.out is None:
        _write_csv(rows, columns, meta, sys.stdout)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            _write_csv(rows, columns, meta, fh)


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:12]
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a mapping at the top level")
    return cfg, digest


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    node = cfg.get(name)
    if node is None:
        if required:
            raise ValidationError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(node, dict):
        raise ValidationError(f"config section '{name}' must be a mapping")
    return node


def _channel(node, what: str) -> BinaryChannel:
    if not isinstance(node, dict):
        raise ValidationError(f"channel '{what}' must be a mapping")
    if "crossover" in node:
        return BinaryChannel.from_crossover(float(node["crossover"]))
    if "q1" in node and "q2" in node:
        return BinaryChannel(float(node["q1"]), float(node["q2"]))
    raise ValidationError(f"channel '{what}' needs either crossover or q1+q2")


def _channels(cfg: dict, need_first: bool, need_second: bool):
    node = _section(cfg, "channels", required=need_first or need_second)
    first = second = None
    if "first" in node:
        first = _channel(node["first"], "first")
    if "second" in node:
        second = _channel(node["second"], "second")
    if need_first and first is None:
        raise ValidationError("this model needs channels.first")
    if need_second and second is None:
        raise ValidationError("this model needs channels.second")
    return first, second


def _battery(cfg: dict) -> BatterySpec:
    node = _section(cfg, "battery")
    try:
        return BatterySpec(capacity=int(node["capacity"]), cost=int(node["cost"]))
    except KeyError as exc:
        raise ValidationError(f"battery section is missing {exc.args[0]!r}") from exc


def _model(cfg: dict) -> Model:
    name = cfg.get("model")
    if name is None:
        raise ValidationError("config is missing 'model'")
    try:
        return Model(str(name))
    except ValueError as exc:
        choices = ", ".join(m.value for m in Model)
        raise ValidationError(f"unknown model {name!r} (choose from: {choices})") from exc


def _loss_pmfs(cfg: dict, spec: BatterySpec) -> tuple[Pmf, Pmf]:
    node = _section(cfg, "loss")
    try:
        zero, one = node["given-zero"], node["given-one"]
    except KeyError as exc:
        raise ValidationError(f"loss section is missing {exc.args[0]!r}") from exc
    return LossShape(tuple(zero), tuple(one)).pmfs(spec.cost)


def _policy_node(cfg: dict):
    node = cfg.get("policy")
    if node is None:
        raise ValidationError("config is missing the 'policy' section")
    return node


def _explicit_policy(node, spec: BatterySpec) -> StatePolicy:
    if not isinstance(node, dict):
        raise ValidationError("policy must be 'optimize' or a mapping of tables")
    if "joint-given-level" in node:
        return StatePolicy.joint_policy(spec, node["joint-given-level"], strict=False)
    if "x1" in node and "x2-given-level" in node:
        return StatePolicy.product_policy(spec, node["x1"], node["x2-given-level"],
                                          strict=False)
    raise ValidationError(
        "policy needs joint-given-level, or x1 plus x2-given-level"
    )


def _source_pmf(node) -> Pmf:
    if not isinstance(node, dict) or "x1" not in node:
        raise ValidationError("the timing model needs policy.x1")
    return Pmf(node["x1"])


def _gate_feasibility(policy: StatePolicy, model: Model, spec: BatterySpec) -> None:
    violations = feasibility_check(policy, model, spec)
    if violations:
        raise ConstraintError("infeasible policy: " + "; ".join(violations))


def _timing_options(cfg: dict) -> dict:
    node = _section(cfg, "timing", required=False)
    return {
        "aux_size": int(node.get("aux-size", 5)),
        "wait_rule": str(node.get("wait", "mod")),
        "wait_const": int(node.get("wait-value", 1)),
        "overlap": bool(node.get("overlap", False)),
        "zmax": int(node["zmax"]) if node.get("zmax") is not None else None,
    }


def _run_config(cfg: dict, seed: int, default_n: int = 100_000) -> tuple[RunConfig, int]:
    node = _section(cfg, "run", required=False)
    n = int(node.get("n", default_n))
    trials = int(node.get("trials", 1))
    initial = int(node.get("initial-level", 0))
    return RunConfig(seed=seed, n=n, trials=trials), initial


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    run = cfg.get("run") or {}
    if isinstance(run, dict) and run.get("seed") is not None:
        return int(run["seed"])
    opt = cfg.get("optimizer") or {}
    if isinstance(opt, dict) and opt.get("seed") is not None:
        return int(opt["seed"])
    return 0


def _optimizer_options(cfg: dict, seed: int) -> OptimizeOptions:
    node = _section(cfg, "optimizer", required=False)
    kwargs = {
        "grid_points": int(node.get("grid-points", 21)),
        "grid_budget": int(node.get("grid-budget", 20_000)),
        "refine_iters": int(node.get("refine-iters", 200)),
        "restarts": int(node.get("restarts", 8)),
        "eps_pos": float(node.get("eps-pos", 1e-6)),
        "seed": seed,
    }
    if node.get("aux-sizes") is not None:
        kwargs["aux_sizes"] = tuple(int(a) for a in node["aux-sizes"])
    return OptimizeOptions(**kwargs)


def _arrival_for(model: Model, cfg: dict, spec: BatterySpec):
    if model is Model.SECOND_HOP:
        return ArrivalModel.deterministic()
    if model is Model.BOTH_HOPS:
        first, _ = _channels(cfg, need_first=True, need_second=False)
        return ArrivalModel.first_hop(first)
    if model is Model.RANDOM_LOSS:
        first, _ = _channels(cfg, need_first=True, need_second=False)
        zero, one = _loss_pmfs(cfg, spec)
        return ArrivalModel.lossy(first, zero, one)
    raise ValidationError("the timing model has no per-level battery policy")


def _breakdown_row(model: Model, spec: BatterySpec, breakdown: RateBreakdown) -> dict:
    return {
        "model": model.value,
        "cost": spec.cost,
        "capacity": spec.capacity,
        "relay_bound": breakdown.relay_bound,
        "receiver_bound": breakdown.receiver_bound,
        "rate": breakdown.rate,
        "achievable": breakdown.achievable,
        "binding": breakdown.binding,
    }


def _breakdown_pretty(model: Model, spec: BatterySpec, breakdown: RateBreakdown) -> list[str]:
    return [
        f"model: {model.value}",
        f"battery: capacity {spec.capacity}, transmission cost {spec.cost}",
        f"relay bound: {_fmt(breakdown.relay_bound)} bits/use",
        f"receiver bound: {_fmt(breakdown.receiver_bound)} bits/use",
        f"rate: {_fmt(breakdown.rate)} bits/use "
        f"(binding: {breakdown.binding}; achievable: {_fmt(breakdown.achievable)})",
    ]


def _cmd_rate(cfg: dict, args, meta: dict):
    model = _model(cfg)
    spec = _battery(cfg)
    node = _policy_node(cfg)
    if node == "optimize":
        raise ValidationError("the rate command evaluates a fixed policy; "
                              "use the optimize command instead")
    if model is Model.TIMING:
        src = _source_pmf(node)
        first, _ = _channels(cfg, need_first=True, need_second=False)
        opts = _timing_options(cfg)
        breakdown = timing_rate(spec, src, first, **opts).breakdown
        _, _, scheme_note = _wait_rule(opts["wait_rule"], opts["aux_size"], opts["wait_const"])
        pretty = _breakdown_pretty(model, spec, breakdown) + [scheme_note]
        return [_breakdown_row(model, spec, breakdown)], _RATE_COLUMNS, pretty
    elif model is Model.SECOND_HOP:
        policy = _explicit_policy(node, spec)
        _gate_feasibility(policy, model, spec)
        _, second = _channels(cfg, need_first=False, need_second=True)
        breakdown = second_hop_rate(spec, policy, second)
    else:
        policy = _explicit_policy(node, spec)
        _gate_feasibility(policy, model, spec)
        first, second = _channels(cfg, need_first=True, need_second=True)
        if policy.mode != "product":
            raise ConstraintError("this scheme requires a product policy")
        rows = [policy.x2_row(u) for u in range(spec.states)]
        if model is Model.BOTH_HOPS:
            breakdown = both_hops_rate(spec, policy.x1, rows, first, second)
        else:
            zero, one = _loss_pmfs(cfg, spec)
            breakdown = random_loss_rate(spec, policy.x1, rows, first, second, zero, one)
    row = _breakdown_row(model, spec, breakdown)
    return [row], _RATE_COLUMNS, _breakdown_pretty(model, spec, breakdown)


def _optimize_kwargs(cfg: dict, model: Model, spec: BatterySpec) -> dict:
    timing_opts = _timing_options(cfg)
    kwargs = {
        "wait_rule": timing_opts["wait_rule"],
        "wait_const": timing_opts["wait_const"],
        "overlap": timing_opts["overlap"],
    }
    if model is Model.SECOND_HOP:
        _, kwargs["ch2"] = _channels(cfg, need_first=False, need_second=True)
    elif model is Model.TIMING:
        kwargs["ch1"], _ = _channels(cfg, need_first=True, need_second=False)
    else:
        kwargs["ch1"], kwargs["ch2"] = _channels(cfg, need_first=True, need_second=True)
        if model is Model.RANDOM_LOSS:
            kwargs["loss"] = _loss_pmfs(cfg, spec)
    return kwargs


def _cmd_optimize(cfg: dict, args, meta: dict):
    model = _model(cfg)
    spec = _battery(cfg)
    seed = _seed(cfg, args)
    opts = _optimizer_options(cfg, seed)
    result = optimize(model, spec, opts=opts, **_optimize_kwargs(cfg, model, spec))
    row = _breakdown_row(model, spec, result.breakdown)
    row["policy_digest"] = result.policy_digest
    row["evaluations"] = result.evaluations
    pretty = _breakdown_pretty(model, spec, result.breakdown)
    pretty.append(f"policy digest: {result.policy_digest} "
                  f"({result.evaluations} objective evaluations)")
    return [row], _OPT_COLUMNS, pretty


def _cmd_sweep(cfg: dict, args, meta: dict):
    node = _section(cfg, "sweep")
    models = node.get("models")
    if not models:
        raise ValidationError("sweep section needs a nonempty 'models' list")
    parameter = str(node.get("parameter", "cost"))
    values = node.get("values")
    if not values:
        raise ValidationError("sweep section needs a nonempty 'values' list")
    seed = _seed(cfg, args)
    ch_node = _section(cfg, "channels", required=False)
    first = _channel(ch_node["first"], "first") if "first" in ch_node else None
    second = _channel(ch_node["second"], "second") if "second" in ch_node else None
    loss = None
    if cfg.get("loss") is not None:
        loss_node = _section(cfg, "loss")
        loss = LossShape(tuple(loss_node["given-zero"]), tuple(loss_node["given-one"]))
    timing_opts = _timing_options(cfg)
    plan = SweepSpec(models=tuple(models), parameter=parameter,
                     values=tuple(int(v) for v in values),
                     cost=int(node["cost"]) if node.get("cost") is not None else None,
                     ch1=first, ch2=second, loss=loss,
                     wait_rule=timing_opts["wait_rule"],
                     wait_const=timing_opts["wait_const"],
                     overlap=timing_opts["overlap"],
                     opts=_optimizer_options(cfg, seed))
    rows = sweep(plan)
    pretty = [f"{r['model']}: cost {r['cost']}, capacity {r['capacity']} -> "
              f"rate {_fmt(r['rate'])} ({r['binding']} binds)" for r in rows]
    return rows, _SWEEP_COLUMNS, pretty


def _cmd_simulate(cfg: dict, args, meta: dict):
    model = _model(cfg)
    spec = _battery(cfg)
    policy = _explicit_policy(_policy_node(cfg), spec)
    _gate_feasibility(policy, model, spec)
    arrival = _arrival_for(model, cfg, spec)
    run, initial = _run_config(cfg, _seed(cfg, args), default_n=1_000_000)
    result = simulate_states(spec, policy, arrival, run, initial_state=initial)
    rows = []
    for level in range(spec.states):
        rows.append({
            "level": level,
            "frequency": float(result.frequencies[level]),
            "stationary": None if result.stationary is None else float(result.stationary[level]),
            "abs_deviation": None if result.stationary is None else
                             float(abs(result.frequencies[level] - result.stationary[level])),
        })
    pretty = [f"visits over {run.n} steps x {run.trials} trials (seed {run.seed}):"]
    for row in rows:
        line = f"  level {row['level']}: frequency {_fmt(row['frequency'])}"
        if row["stationary"] is not None:
            line += f" (steady state {_fmt(row['stationary'])})"
        pretty.append(line)
    if result.max_deviation is not None:
        pretty.append(f"max deviation from the steady state: {_fmt(result.max_deviation)}")
    else:
        pretty.append("no steady state exists for this chain")
    return rows, _SIM_COLUMNS, pretty


def _cmd_aep(cfg: dict, args, meta: dict):
    model = _model(cfg)
    spec = _battery(cfg)
    policy = _explicit_policy(_policy_node(cfg), spec)
    _gate_feasibility(policy, model, spec)
    arrival = _arrival_for(model, cfg, spec)
    analysis = analyze_chain(spec, policy, arrival)
    chain = pair_chain(spec, policy, arrival, analysis.pi, kernel=analysis.kernel)
    noiseless = bool(_section(cfg, "aep", required=False).get("noiseless", False))
    second = None
    if not noiseless:
        _, second = _channels(cfg, need_first=False, need_second=True)
    run, _ = _run_config(cfg, _seed(cfg, args), default_n=10_000)
    result = empirical_aep(chain, second, run)
    rows = [{"trial": t, "n": run.n,
             "marginal_bits_per_symbol": float(result.marginal_bits[t]),
             "joint_bits_per_symbol": float(result.joint_bits[t])}
            for t in range(run.trials)]
    pretty = [
        f"received-sequence bits/symbol: mean {_fmt(result.marginal_mean)}, "
        f"std {_fmt(result.marginal_std)} over {run.trials} trials at n={run.n}",
        f"relay+received bits/symbol:    mean {_fmt(result.joint_mean)}, "
        f"std {_fmt(result.joint_std)}",
    ]
    return rows, _AEP_COLUMNS, pretty


def _cmd_codec(cfg: dict, args, meta: dict):
    spec = _battery(cfg)
    policy = _explicit_policy(_policy_node(cfg), spec)
    _gate_feasibility(policy, Model.SECOND_HOP, spec)
    node = _section(cfg, "codec", required=False)
    analysis = analyze_chain(spec, policy, ArrivalModel.deterministic())
    pi = analysis.pi.probs
    if node.get("rates") is not None:
        rates = tuple(float(r) for r in node["rates"])
    else:
        margin = float(node.get("margin", 0.1))
        per_level = per_level_source_entropy_bits(policy.tensor())
        rates = tuple(float(max(h - margin, 0.0)) for h in per_level)
    slack = float(node.get("slack", float(pi.min()) / 2.0))
    pad = int(node["pad"]) if node.get("pad") is not None else None
    blocks = int(node.get("blocks", 2))
    codec = CodecConfig(spec=spec, policy=policy, rate_bits=rates, slack=slack, pad=pad)
    run, _ = _run_config(cfg, _seed(cfg, args), default_n=400)
    result = relay_codec_trial(codec, blocks, run)
    rows = [{"block": b, "n": run.n, "trials": run.trials,
             "p_incomplete": float(result.p_incomplete[b]),
             "p_ambiguous": float(result.p_ambiguous[b]),
             "p_either": float(result.p_either[b])}
            for b in range(blocks)]
    pretty = [f"relay decoder over {blocks} blocks of n={run.n} "
              f"({run.trials} trials, {result.total_bits} message bits):"]
    for row in rows:
        pretty.append(
            f"  block {row['block']}: incomplete {_fmt(row['p_incomplete'])}, "
            f"ambiguous {_fmt(row['p_ambiguous'])}, either {_fmt(row['p_either'])}"
        )
    return rows, _CODEC_COLUMNS, pretty


def _timing_inputs(cfg: Optional[dict], args) -> tuple[int, float, dict]:
    if cfg is not None:
        node = _section(cfg, "timing", required=False)
        cost = args.cost if args.cost is not None else _battery(cfg).cost
        p1 = args.charge_p if args.charge_p is not None else node.get("charge-p")
        opts = _timing_options(cfg)
    else:
        cost, p1 = args.cost, args.charge_p
        opts = {"aux_size": 5, "wait_rule": "mod", "wait_const": 1,
                "overlap": False, "zmax": None}
    if args.wait is not None:
        opts["wait_rule"] = args.wait
    if args.wait_value is not None:
        opts["wait_const"] = args.wait_value
    if args.aux_size is not None:
        opts["aux_size"] = args.aux_size
    if args.overlap:
        opts["overlap"] = True
    if args.zmax is not None:
        opts["zmax"] = args.zmax
    if cost is None or p1 is None:
        raise ValidationError("the timing command needs --cost and --charge-p "
                              "(or a config providing them)")
    return int(cost), float(p1), opts


def _cmd_timing(cfg: Optional[dict], args, meta: dict):
    cost, p1, opts = _timing_inputs(cfg, args)
    z = z_pmf(ZNoise(cost=cost, p1=p1, overlap=opts["overlap"], zmax=opts["zmax"]))
    aux, table, scheme_note = _wait_rule(opts["wait_rule"], opts["aux_size"], opts["wait_const"])
    t = t_pmf(z, TimingScheme(aux, table(z.values)))
    rows = [{"series": "recharge", "value": int(v), "probability": float(p)}
            for v, p in zip(z.values, z.probs)]
    rows += [{"series": "spacing", "value": int(v), "probability": float(p)}
             for v, p in zip(t.values, t.probs)]
    hz, ht = z.entropy_bits(), t.entropy_bits()
    pretty = [
        f"recharge time: mean {_fmt(z.mean())}, entropy {_fmt(hz)} bits",
        f"spacing: mean {_fmt(t.mean())}, entropy {_fmt(ht)} bits",
        f"spacing throughput: {_fmt(ht / t.mean())} bits per slot",
        scheme_note,
    ]
    return rows, _TIMING_COLUMNS, pretty


_HANDLERS = {
    "rate": _cmd_rate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "aep": _cmd_aep,
    "codec": _cmd_codec,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ehrelay",
                     description="Rates and experiments for a battery-limited relay link")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("rate", "evaluate one scheme at a fixed policy"),
        ("optimize", "maximize one scheme over its policy space"),
        ("sweep", "optimize a family of battery geometries"),
        ("simulate", "sample battery-level occupancy"),
        ("aep", "sample log-likelihood concentration at the destination"),
        ("codec", "estimate the relay decoder's error events"),
        ("timing", "recharge and spacing distributions"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML config path",
                       required=(name != "timing"))
        p.add_argument("--seed", type=int, help="override every seed in the config")
        p.add_argument("--out", help="write CSV to this path")
        p.add_argument("--format", choices=("csv", "pretty"), default="pretty")
        if name == "timing":
            p.add_argument("--cost", type=int, help="battery units per transmission")
            p.add_argument("--charge-p", type=float, help="per-slot charge probability")
            p.add_argument("--wait", choices=("mod", "const"))
            p.add_argument("--wait-value", type=int)
            p.add_argument("--aux-size", type=int)
            p.add_argument("--overlap", action="store_true")
            p.add_argument("--zmax", type=int)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        if args.command == "timing":
            if args.config is not None:
                cfg, digest = _load_config(args.config)
            else:
                cfg = None
                stamp = (f"timing|cost={args.cost}|p={args.charge_p}|wait={args.wait}"
                         f"|value={args.wait_value}|aux={args.aux_size}"
                         f"|overlap={args.overlap}|zmax={args.zmax}")
                digest = hashlib.sha256(stamp.encode()).hexdigest()[:12]
            seed = args.seed if args.seed is not None else 0
            meta = {"config_hash": digest, "seed": seed,
                    "version": __version__, "command": "timing"}
            rows, columns, pretty = _cmd_timing(cfg, args, meta)
        else:
            cfg, digest = _load_config(args.config)
            meta = {"config_hash": digest, "seed": _seed(cfg, args),
                    "version": __version__, "command": args.command}
            rows, columns, pretty = _HANDLERS[args.command](cfg, args, meta)
        _emit(rows, columns, meta, pretty, args)
        return 0
    except ConstraintError as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EhRelayError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
