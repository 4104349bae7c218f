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
import contextlib
import functools
import hashlib
import inspect
import os
import sys

import numpy as np
import yaml

from . import __version__
from .battery import BatterySpec, StatePolicy, analyze_chain, pair_chain
from .errors import ConstraintError, EhRelayError, NumericalError, ValidationError
from .mclab import (
    CodecConfig,
    RunConfig,
    empirical_aep,
    relay_codec_trial,
    simulate_states,
)
from .optimize import LossShape, OptimizeOptions, SweepSpec, _breakdown_row, optimize, sweep
from .pmf import BinaryChannel, Pmf
from .rates import (
    Model,
    RateBreakdown,
    _charge_law,
    _policy_rate,
    _scheme,
    feasibility_check,
    per_level_source_entropy_bits,
)
from .timing import TimingScheme, ZNoise, _timing_result, _wait_rule, t_pmf, timing_rate, z_pmf

_RATE_COLUMNS = ("model", "cost", "capacity", "relay_bound", "receiver_bound",
                 "rate", "achievable", "binding")
_OPT_COLUMNS = _RATE_COLUMNS + ("policy_digest", "evaluations")
_SWEEP_COLUMNS = _RATE_COLUMNS + ("policy_digest",)
_SIM_COLUMNS = ("level", "frequency", "stationary", "abs_deviation")
_AEP_COLUMNS = ("trial", "n", "marginal_bits_per_symbol", "joint_bits_per_symbol")
_CODEC_COLUMNS = ("block", "n", "trials", "p_incomplete", "p_ambiguous", "p_either")
_TIMING_COLUMNS = ("series", "value", "probability")
# libyaml's parser where pyyaml was built with it, pyyaml's own otherwise;
# both feed the same safe constructor and resolver, so a config reads the
# same either way.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
        try:
            with open(args.out, "w", encoding="ascii", newline="") as fh:
                _write_csv(rows, columns, meta, fh)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _detach_stdout() -> None:
    """Point stdout's descriptor at os.devnull, so the exit flush of a closed
    pipe cannot raise again; a stdout without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# The config schema: every section and key, and each key's type. A type is
# int, float, bool or str; a dict is a mapping of keys; [kind] is a list of
# kind; ("word", mapping) is that literal word or the mapping. Int keys take
# YAML ints only, float keys also take strings float() parses (YAML 1.1 reads
# 1e-6 as a string), bool keys take YAML booleans only, and a null value
# counts as omitted. Ranges are checked by the objects the values build.
_CHANNEL = {"crossover": float, "q1": float, "q2": float}
_SCHEMA = {
    "model": str,
    "battery": {"capacity": int, "cost": int},
    "channels": {"first": _CHANNEL, "second": _CHANNEL},
    "loss": {"given-zero": [float], "given-one": [float]},
    "policy": ("optimize", {"joint-given-level": [[[float]]], "x1": [float],
                            "x2-given-level": [[float]]}),
    "timing": {"aux-size": int, "wait": str, "wait-value": int, "overlap": bool,
               "zmax": int, "charge-p": float},
    "run": {"n": int, "trials": int, "seed": int, "initial-level": int},
    "optimizer": {"grid-points": int, "grid-budget": int, "refine-iters": int,
                  "restarts": int, "eps-pos": float, "seed": int, "aux-sizes": [int]},
    "sweep": {"models": [str], "parameter": str, "values": [int], "cost": int},
    "codec": {"rates": [float], "margin": float, "slack": float, "blocks": int,
              "pad": int},
    "aep": {"noiseless": bool},
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
# Config keys whose API keyword is not the key with dashes made underscores.
_API_NAMES = {"wait": "wait_rule", "wait-value": "wait_const", "initial-level": "initial_state"}


def _read(value, kind, path: str):
    """``value`` checked against the schema entry ``kind``, lists made tuples."""
    if isinstance(kind, tuple):
        word, kind = kind
        if value == word:
            return value
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"{path} must be a mapping, got {value!r}")
        out = {}
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key not in kind:
                raise ValidationError(f"unknown config key {where}")
            if item is not None:
                out[key] = _read(item, kind[key], where)
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValidationError(f"{path} must be a list, got {value!r}")
        return tuple(_read(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value))
    if isinstance(value, bool) == (kind is bool):  # booleans fit bool keys alone
        if kind is float and isinstance(value, (int, float, str)):
            try:
                return float(value)
            except (ValueError, OverflowError):
                pass
        elif isinstance(value, kind):
            return value
    raise ValidationError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:12]
    # Reading a nested value, or the repr that names it in an error, takes
    # one Python frame per level of nesting.
    try:
        try:
            cfg = yaml.load(raw, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ValidationError(f"config {path} is not valid YAML: "
                                  + " ".join(str(exc).split())) from exc
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a mapping at the top level")
        return _read(cfg, _SCHEMA, ""), digest
    except RecursionError:
        raise ValidationError(f"config {path} nests too deeply to read") from None


def _need(cfg: dict, path: str):
    """The value at a dotted config path that the command cannot do without."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f"config is missing {path}")
        node = node[key]
    return node


def _kwargs(node: dict, *skip: str) -> dict:
    """A config section less the ``skip`` keys, as keyword arguments.

    Keys the config omits stay omitted, so the callee's defaults apply.
    """
    return {_API_NAMES.get(key, key.replace("-", "_")): value
            for key, value in node.items() if key not in skip}


@contextlib.contextmanager
def _section(name: str):
    """Prefix the config section to a validation error raised inside, as "run: ..."."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _channels(cfg: dict, *need: str) -> dict:
    """The config's channels by hop name; each hop in ``need`` must be given."""
    out = {}
    for hop, node in cfg.get("channels", {}).items():
        with _section(f"channels.{hop}"):
            if "crossover" in node:
                out[hop] = BinaryChannel.from_crossover(node["crossover"])
            elif "q1" in node and "q2" in node:
                out[hop] = BinaryChannel(node["q1"], node["q2"])
            else:
                raise ValidationError("needs either crossover or q1+q2")
    for hop in need:
        if hop not in out:
            raise ValidationError(f"this model needs channels.{hop}")
    return out


def _battery(cfg: dict) -> BatterySpec:
    capacity, cost = _need(cfg, "battery.capacity"), _need(cfg, "battery.cost")
    with _section("battery"):
        return BatterySpec(capacity=capacity, cost=cost)


def _loss(cfg: dict) -> LossShape:
    given = _need(cfg, "loss.given-zero"), _need(cfg, "loss.given-one")
    with _section("loss"):
        return LossShape(*given)


def _explicit_policy(cfg: dict, spec: BatterySpec) -> StatePolicy:
    node = _need(cfg, "policy")
    if not isinstance(node, dict):
        raise ValidationError("this command needs a fixed policy, not 'optimize'")
    if "joint-given-level" in node:
        return StatePolicy.joint_policy(spec, node["joint-given-level"], strict=False)
    if "x1" in node and "x2-given-level" in node:
        return StatePolicy.product_policy(spec, node["x1"], node["x2-given-level"],
                                          strict=False)
    raise ValidationError(
        "policy needs joint-given-level, or x1 plus x2-given-level"
    )


def _gate_feasibility(policy: StatePolicy, model: Model, spec: BatterySpec) -> None:
    violations = feasibility_check(policy, model, spec)
    if violations:
        raise ConstraintError("infeasible policy: " + "; ".join(violations))


def _timing_opts(cfg: dict, **flags) -> dict:
    """``timing_rate``'s keyword arguments: its defaults, overridden by the
    config's timing keys, overridden by the flags that are not None."""
    defaults = {name: param.default for name, param in
                inspect.signature(timing_rate).parameters.items()
                if param.kind is param.KEYWORD_ONLY}
    given = {key: value for key, value in flags.items() if value is not None}
    return {**defaults, **_kwargs(cfg.get("timing", {}), "charge-p"), **given}


# Timing keys that some commands cannot honour, and why.
_UNUSED_TIMING = {
    "charge-p": "the charge law follows from the source law and channels.first",
    "zmax": "the search sizes the recharge horizon itself",
    "aux-size": "set optimizer.aux-sizes instead",
}


def _reject_timing(cfg: dict, command: str, *keys: str) -> None:
    node = cfg.get("timing", {})
    for key in keys:
        if key in node:
            raise ValidationError(
                f"timing.{key} does not apply to {command}: {_UNUSED_TIMING[key]}")


def _timing_rule(opts: dict):
    """``_wait_rule`` of the timing options; its errors name the timing section."""
    with _section("timing"):
        return _wait_rule(opts["wait_rule"], opts["aux_size"], opts["wait_const"])


def _search_timing(cfg: dict, command: str, models) -> dict:
    """The timing keys the optimizer takes; the keys it cannot honour are errors,
    and so is a bad wait rule when a timing search will use it."""
    _reject_timing(cfg, command, *_UNUSED_TIMING)
    if Model.TIMING in models:
        _timing_rule(_timing_opts(cfg))
    return _kwargs(cfg.get("timing", {}))


def _run_config(cfg: dict, args, default_n: int) -> RunConfig:
    node = {"n": default_n, **cfg.get("run", {})}
    seed = _seed(cfg, args)
    with _section("run"):
        return RunConfig(seed=seed, **_kwargs(node, "seed", "initial-level"))


def _optimizer(cfg: dict, args) -> OptimizeOptions:
    seed = _seed(cfg, args)
    with _section("optimizer"):
        return OptimizeOptions(seed=seed, **_kwargs(cfg.get("optimizer", {}), "seed"))


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.get("run", {}).get("seed", cfg.get("optimizer", {}).get("seed", 0))


def _ingredients(model: Model, cfg: dict, spec: BatterySpec) -> dict:
    """The config's channels, and for random-loss its loss laws, as the
    keyword arguments of ``_scheme`` and ``optimize``, which check them."""
    ch = _channels(cfg)
    loss = _loss(cfg).pmfs(spec.cost) if model is Model.RANDOM_LOSS else None
    return {"ch1": ch.get("first"), "ch2": ch.get("second"), "loss": loss}


def _arrival_for(model: Model, cfg: dict, spec: BatterySpec):
    given = _ingredients(model, cfg, spec)
    return _charge_law(model, given["ch1"], given["loss"])


def _breakdown_pretty(model: Model, spec: BatterySpec, breakdown: RateBreakdown) -> list[str]:
    return [
        f"model: {model.value}",
        f"battery: capacity {spec.capacity}, transmission cost {spec.cost}",
        f"relay bound: {_fmt(breakdown.relay_bound)} bits/use",
        f"receiver bound: {_fmt(breakdown.receiver_bound)} bits/use",
        f"rate: {_fmt(breakdown.rate)} bits/use "
        f"(binding: {breakdown.binding}; achievable: {_fmt(breakdown.achievable)})",
    ]


def _cmd_rate(cfg: dict, args):
    _reject_timing(cfg, "rate", "charge-p")
    model = Model(_need(cfg, "model"))
    spec = _battery(cfg)
    if _need(cfg, "policy") == "optimize":
        raise ValidationError("the rate command evaluates a fixed policy; "
                              "use the optimize command instead")
    if model is Model.TIMING:
        src = Pmf(_need(cfg, "policy.x1"))
        first = _channels(cfg, "first")["first"]
        opts = _timing_opts(cfg)
        rule, scheme_note = _timing_rule(opts)
        result = _timing_result(spec, src, first, rule, opts["overlap"], opts["zmax"])
        breakdown = result.breakdown
        pretty = _breakdown_pretty(model, spec, breakdown) + [scheme_note]
        return [_breakdown_row(model, spec, breakdown)], _RATE_COLUMNS, pretty
    policy = _explicit_policy(cfg, spec)
    _gate_feasibility(policy, model, spec)
    breakdown = _policy_rate(_scheme(model, spec, **_ingredients(model, cfg, spec)), policy)
    row = _breakdown_row(model, spec, breakdown)
    return [row], _RATE_COLUMNS, _breakdown_pretty(model, spec, breakdown)


def _cmd_optimize(cfg: dict, args):
    model = Model(_need(cfg, "model"))
    spec = _battery(cfg)
    result = optimize(model, spec, **_ingredients(model, cfg, spec), opts=_optimizer(cfg, args),
                      **_search_timing(cfg, "optimize", (model,)))
    row = _breakdown_row(model, spec, result.breakdown)
    row["policy_digest"] = result.policy_digest
    row["evaluations"] = result.evaluations
    pretty = _breakdown_pretty(model, spec, result.breakdown)
    pretty.append(f"policy digest: {result.policy_digest} "
                  f"({result.evaluations} objective evaluations)")
    return [row], _OPT_COLUMNS, pretty


def _cmd_sweep(cfg: dict, args):
    models = tuple(Model(m) for m in _need(cfg, "sweep.models"))
    _need(cfg, "sweep.values")
    ch = _channels(cfg)
    plan = SweepSpec(**{"parameter": "cost", **_kwargs(cfg["sweep"]), "models": models},
                     ch1=ch.get("first"), ch2=ch.get("second"),
                     loss=_loss(cfg) if "loss" in cfg else None,
                     opts=_optimizer(cfg, args), **_search_timing(cfg, "sweep", models))
    rows = sweep(plan)
    pretty = [f"{r['model']}: cost {r['cost']}, capacity {r['capacity']} -> "
              f"rate {_fmt(r['rate'])} ({r['binding']} binds)" for r in rows]
    return rows, _SWEEP_COLUMNS, pretty


def _cmd_simulate(cfg: dict, args):
    model = Model(_need(cfg, "model"))
    spec = _battery(cfg)
    policy = _explicit_policy(cfg, spec)
    _gate_feasibility(policy, model, spec)
    arrival = _arrival_for(model, cfg, spec)
    run = _run_config(cfg, args, default_n=1_000_000)
    result = simulate_states(spec, policy, arrival, run,
                             **_kwargs(cfg.get("run", {}), "n", "trials", "seed"))
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


def _cmd_aep(cfg: dict, args):
    model = Model(_need(cfg, "model"))
    spec = _battery(cfg)
    policy = _explicit_policy(cfg, spec)
    _gate_feasibility(policy, model, spec)
    arrival = _arrival_for(model, cfg, spec)
    analysis = analyze_chain(spec, policy, arrival)
    chain = pair_chain(spec, policy, arrival, analysis.pi)
    noiseless = cfg.get("aep", {}).get("noiseless", False)
    second = None if noiseless else _channels(cfg, "second")["second"]
    run = _run_config(cfg, args, default_n=10_000)
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


def _cmd_codec(cfg: dict, args):
    spec = _battery(cfg)
    policy = _explicit_policy(cfg, spec)
    _gate_feasibility(policy, Model.SECOND_HOP, spec)
    node = cfg.get("codec", {})
    analysis = analyze_chain(spec, policy, _charge_law(Model.SECOND_HOP, None, None))
    pi = analysis.pi.probs
    if "rates" in node:
        rates = node["rates"]
    else:
        margin = node.get("margin", 0.1)
        per_level = per_level_source_entropy_bits(policy.tensor())
        rates = tuple(float(max(h - margin, 0.0)) for h in per_level)
    blocks = node.get("blocks", 2)
    run = _run_config(cfg, args, default_n=400)
    with _section("codec"):
        codec = CodecConfig(spec=spec, policy=policy, rate_bits=rates,
                            slack=node.get("slack", float(pi.min()) / 2.0),
                            **_kwargs(node, "rates", "margin", "slack", "blocks"))
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


def _cmd_timing(cfg: dict, args):
    opts = _timing_opts(cfg, wait_rule=args.wait, wait_const=args.wait_value,
                        aux_size=args.aux_size, overlap=args.overlap or None, zmax=args.zmax)
    cost = args.cost
    if cost is None and args.config is not None:
        cost = _battery(cfg).cost
    p1 = args.charge_p if args.charge_p is not None else cfg.get("timing", {}).get("charge-p")
    if cost is None or p1 is None:
        raise ValidationError("the timing command needs --cost and --charge-p "
                              "(or a config providing them)")
    z = z_pmf(ZNoise(cost=cost, p1=p1, overlap=opts["overlap"], zmax=opts["zmax"]))
    rule, scheme_note = _timing_rule(opts)
    t = t_pmf(z, TimingScheme(*rule(z.values)))
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
    "timing": _cmd_timing,
}


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The command-line parser, built on first use and shared by later calls.

    ``parse_args`` keeps nothing between calls: each returns a fresh
    namespace, and usage text goes to the ``sys.stderr`` of the moment.
    """
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
    try:
        args = _parser().parse_args(argv)
    except _UsageError:
        return 1
    try:
        if args.config is not None:
            cfg, digest = _load_config(args.config)
        else:  # only the timing command runs from flags alone
            cfg = {}
            stamp = (f"timing|cost={args.cost}|p={args.charge_p}|wait={args.wait}"
                     f"|value={args.wait_value}|aux={args.aux_size}"
                     f"|overlap={args.overlap}|zmax={args.zmax}")
            digest = hashlib.sha256(stamp.encode()).hexdigest()[:12]
        if args.command == "timing":  # no config seed: nothing in it is drawn at random
            seed = args.seed if args.seed is not None else 0
        else:
            seed = _seed(cfg, args)
        meta = {"config_hash": digest, "seed": seed,
                "version": __version__, "command": args.command}
        rows, columns, pretty = _HANDLERS[args.command](cfg, args)
        try:
            _emit(rows, columns, meta, pretty, args)
        except BrokenPipeError:  # the reader closed early: exit 1, as Python does on EPIPE
            _detach_stdout()
            return 1
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
