"""Command-line front end: experiments, bounds, censuses, and moment checks.

Output is JSON-lines by default (one record per line, "schema": "v1", floats
rendered with 17 significant digits) or CSV via --format csv.  A run manifest
goes to stderr so that stdout stays byte-identical for a fixed seed and flag
set regardless of wall time.

Exit codes: 0 success, 1 validation problems (including unknown flags),
2 exceeded resource budgets, 3 a broken invariant (a failed self-check, which
points at the code rather than the input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, bounds, cgraph, experiments, groups, moments, pauli
from .errors import BudgetError, InvariantError, ValidationError

CLI_GROUPS = ("matchgate", "orthogonal", "symplectic", "unitary", "mixed_unitary", "clifford")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags on stderr and exits 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# serialization


def _render_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, Fraction):
        return json.dumps(str(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not math.isfinite(v):
            raise ValidationError(f"refusing to serialize non-finite value {v}")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_render_value(u)}" for k, u in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render_value(u) for u in v) + "]"
    raise ValidationError(f"cannot serialize value of type {type(v).__name__}")


def _record(**fields) -> dict:
    """An output record: "schema": "v1" first, then the fields in order."""
    return {"schema": "v1", **fields}


def _json_line(record: dict) -> str:
    return _render_value(record)


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in record.items():
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{name}."))
        else:
            flat[name] = v
    return flat


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return " ".join(_csv_cell(u) for u in v)
    return str(v)


def _emit(records: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = "".join(_json_line(r) + "\n" for r in records)
    else:
        rows = [_flatten(r) for r in records]
        header: list[str] = []
        for row in rows:
            for k in row:
                if k not in header:
                    header.append(k)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in header])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest(args: argparse.Namespace, wall: float) -> None:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    record = {
        "manifest": True,
        "schema": "v1",
        "subcommand": args.subcommand,
        "params": params,
        "seed": params.get("seed"),
        "version": __version__,
        "wall_time_s": round(wall, 6),
        "out": args.out or "stdout",
    }
    print(_json_line(record), file=sys.stderr)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_region(text: str | None, n: int, flag: str = "--region"):
    if text is None:
        return None
    try:
        region = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not region:
        raise ValidationError(f"{flag} must name at least one qubit, got {text!r}")
    if any(q < 0 or q >= n for q in region):
        raise ValidationError(f"{flag} {text!r} is out of range for n={n}")
    return region


def _parse_vertex(text: str | None, n: int):
    if text is None:
        return None
    P = pauli.from_text(text)
    if P.n != n:
        raise ValidationError(f"--vertex {text!r} has {P.n} letters, expected n={n}")
    return P


def _flag_generator_set(group: str, n: int, which: str | None) -> cgraph.GeneratorSet:
    """The generator set that --generator-set names; None is the full set for
    matchgates and the standard set for the other groups."""
    groups.check_group_qubits(n)
    if which is None:
        which = "full" if group == "matchgate" else "standard"
    elif which == "full" and group != "matchgate":
        raise ValidationError("--generator-set full applies to the matchgate group only")
    return groups.generator_set(group, n, which)


def _tolerance(stderr, k: float = 5.0):
    """The allowed |measured - predicted|: k standard errors, never below 1e-12."""
    return np.maximum(k * stderr, 1e-12)


# ---------------------------------------------------------------------------
# graph subcommand


def _cmd_graph(args) -> list[dict]:
    n = args.n
    S = _flag_generator_set(args.group, n, args.generator_set)
    records: list[dict] = []
    did_something = False
    if args.census:
        did_something = True
        comps = cgraph.census(S)
        # a census root is its component's smallest key
        comps = sorted(comps, key=lambda c: (pauli.majorana_count(c.representative), int(c.levels[0][0])))
        for i, comp in enumerate(comps):
            records.append(
                _record(
                    type="component",
                    group=args.group,
                    n=n,
                    component_id=i,
                    size=comp.size,
                    representative=pauli.to_text(comp.representative),
                    majorana_count=pauli.majorana_count(comp.representative),
                    reference="component-census",
                )
            )
    vertex = _parse_vertex(args.vertex, n)
    if vertex is None and (args.balls or args.diameter or args.r_region is not None):
        vertex = experiments.gatecount_perturbation(n)
    if args.balls:
        did_something = True
        sizes = np.cumsum([level.size for level in cgraph.component(vertex, S).levels]).tolist()
        for N, ball_size in enumerate(sizes):
            records.append(
                _record(
                    type="ball",
                    group=args.group,
                    n=n,
                    vertex=pauli.to_text(vertex),
                    N=N,
                    ball_size=ball_size,
                    component_size=sizes[-1],
                    ratio=Fraction(ball_size, sizes[-1]),
                    reference="component-ball-sweep",
                )
            )
    if args.r_region is not None:
        did_something = True
        region = _parse_region(args.r_region, n, "--r-region")
        try:
            exact, approx = cgraph.r_fraction(vertex, S, region)
        except ValidationError as exc:
            raise ValidationError(f"--vertex {pauli.to_text(vertex)} and --r-region {args.r_region!r}: {exc}") from exc
        records.append(
            _record(
                type="region-ratio",
                group=args.group,
                n=n,
                vertex=pauli.to_text(vertex),
                region=list(region),
                exact=exact,
                value=approx,
                reference="region-ratio",
            )
        )
    if args.diameter:
        did_something = True
        comp = cgraph.component(vertex, S)
        result = cgraph.diameter(comp, S)
        records.append(
            _record(
                type="diameter",
                group=args.group,
                n=n,
                vertex=pauli.to_text(vertex),
                value=result.value,
                mode=result.mode,
                component_size=comp.size,
                reference="component-diameter",
            )
        )
    if not did_something:
        raise ValidationError("nothing to do: pass --census, --balls, --r-region, or --diameter")
    return records


# ---------------------------------------------------------------------------
# bounds subcommand


_BOUND_FLAG_DESTS = ("d", "dL", "n", "p_shallow", "p_haar", "r", "ball", "component", "S_size", "N")
# a sweep of this many records takes about half a second on one core
SWEEP_RECORD_CAP = 10_000


def _bound_inputs(args) -> dict:
    provided = {}
    for dest in _BOUND_FLAG_DESTS:
        value = getattr(args, dest)
        if value is None:
            continue
        name = {"dL": "d_L"}.get(dest, dest)
        if dest == "r":
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"--r expects a rational like 5/14, got {value!r}") from exc
        provided[name] = value
    return provided


def _cmd_bounds(args) -> list[dict]:
    if args.sweep is not None:
        if args.formula != "matchgate-depth":
            raise ValidationError("--sweep applies to the matchgate-depth formula only")
        parts = args.sweep.split(":")
        if len(parts) not in (2, 3):
            raise ValidationError(f"--sweep expects MIN:MAX[:STEP], got {args.sweep!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 2
        except ValueError as exc:
            raise ValidationError(f"--sweep expects integers MIN:MAX[:STEP], got {args.sweep!r}") from exc
        if step < 1:
            raise ValidationError(f"--sweep step must be >= 1, got {args.sweep!r}")
        if lo > hi:
            raise ValidationError(f"--sweep MIN must not exceed MAX, got {args.sweep!r}")
        sweep = range(lo, hi + 1, step)
        if len(sweep) > SWEEP_RECORD_CAP:
            raise BudgetError(f"--sweep {args.sweep} gives {len(sweep)} records, over the cap of {SWEEP_RECORD_CAP}")
        records = []
        for n in sweep:
            rep = bounds.bound_report("matchgate-depth", n=n)
            records.append(
                _record(
                    type="bound",
                    formula=rep.formula,
                    n=n,
                    exact=rep.exact,
                    value=rep.value,
                    reference=rep.reference,
                )
            )
        return records
    rep = bounds.bound_report(args.formula, **_bound_inputs(args))
    inputs = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rep.inputs.items()}
    return [
        _record(
            type="bound",
            formula=rep.formula,
            inputs=inputs,
            exact=rep.exact,
            value=rep.value,
            reference=rep.reference,
        )
    ]


# ---------------------------------------------------------------------------
# moments subcommand (and the fs-indicator alias)


def _fs_analytic(group: str, n: int, sector: str):
    if group == "unitary":
        return 0.0
    if group == "orthogonal":
        return 1.0
    if group == "symplectic":
        return -1.0
    if group == "mixed_unitary":
        return 2.0
    if group == "matchgate" and sector == "even":
        if n % 4 == 2:
            return -1.0
        if n % 4 == 0:
            return 1.0
    return None


def _run_fs(args) -> list[dict]:
    if args.n is None:
        raise ValidationError("fs-indicator needs --n")
    G = groups.group_spec(args.group, args.n)
    if args.group == "mixed_unitary":
        est = moments.mixed_unitary_fs(1 << args.n, args.samples, args.seed)
        sector = "full"
    else:
        Pi = moments.even_parity_projector(args.n) if args.parity_sector == "even" else None
        est = moments.frobenius_schur(G, Pi, args.samples, args.seed)
        sector = args.parity_sector
    return [
        _record(
            quantity="fs-indicator",
            group=args.group,
            n=args.n,
            sector=sector,
            **dataclasses.asdict(est),
            analytic=_fs_analytic(args.group, args.n, sector),
            reference="frobenius-schur",
        )
    ]


def _twirl_check(kind: str, n: int, samples: int, seed: int):
    """Sampled single-Z twirl against its closed form, entry by entry.

    Returns (largest deviation, largest allowance, every entry within its
    allowance of five standard errors).
    """
    G = groups.group_spec(kind, n)
    mean, stderr = moments.mc_second_moment_matrix(G, pauli.PauliString(n, 0, 1), samples, seed)
    dev = np.abs(mean - moments.second_moment_closed_form(kind, n))
    allowed = _tolerance(stderr)
    return float(dev.max()), float(allowed.max()), bool((dev <= allowed).all())


def _cmd_moments(args) -> list[dict]:
    q = args.quantity
    if q != "mixed-commutant" and args.n is None:
        raise ValidationError(f"--quantity {q} needs --n")
    if q == "fs-indicator":
        return _run_fs(args)
    if q == "second-moment-trace":
        n = args.n
        G = groups.group_spec(args.group, n)
        V = _parse_vertex(args.vertex, n) or experiments.default_perturbation(args.group, n)
        region = _parse_region(args.region, n)
        if region is None:
            region = experiments.default_region(n)
        est = moments.mc_second_moment_trace(G, V, region, args.samples, args.seed)
        analytic = None
        try:
            cfg = experiments.ExperimentConfig(
                G, n, V, region, experiments.brickwork(0), args.samples, args.seed
            )
            bound, _ = experiments._depth_analytic(cfg)
            if bound is not None:
                d_C = 1 << (n - len(set(region)))
                analytic = (1.0 - bound / 2.0) * (1 << n) * d_C
        except (ValidationError, BudgetError):
            analytic = None
        return [
            _record(
                quantity="second-moment-trace",
                group=args.group,
                n=n,
                vertex=pauli.to_text(V),
                region=list(region),
                **dataclasses.asdict(est),
                analytic=analytic,
                reference="regional-swap-second-moment",
            )
        ]
    if q == "weingarten-check":
        if args.group not in ("orthogonal", "symplectic"):
            raise ValidationError("--quantity weingarten-check needs --group orthogonal|symplectic")
        n = args.n
        max_dev, max_allowed, passed = _twirl_check(args.group, n, args.samples, args.seed)
        alpha, beta, gamma = moments.weingarten_coefficients(args.group, 1 << n)
        return [
            _record(
                quantity="weingarten-check",
                group=args.group,
                n=n,
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                max_abs_deviation=max_dev,
                max_allowed=max_allowed,
                entrywise_pass=passed,
                samples=args.samples,
                seed=args.seed,
                reference="single-z-twirl-closed-form",
            )
        ]
    if q == "mixed-commutant":
        est = moments.mixed_unitary_commutant_dimension(
            args.source, d=args.d, n=args.n, M=args.samples, seed=args.seed
        )
        analytic = {"clifford_enumeration": 2.0, "pauli_enumeration": None, "haar_unitary": 2.0}[
            args.source
        ]
        if args.source == "pauli_enumeration" and args.n is not None:
            analytic = float((1 << args.n) ** 2)
        return [
            _record(
                quantity="mixed-commutant",
                source=args.source,
                d=args.d,
                n=args.n,
                **dataclasses.asdict(est),
                analytic=analytic,
                reference="conjugate-copy-commutant",
            )
        ]
    if q == "spread-uniformity":
        n = args.n
        G = groups.group_spec(args.group, n)
        S = _flag_generator_set(args.group, n, args.generator_set)
        P = _parse_vertex(args.vertex, n) or pauli.PauliString(n, 0, 1)
        report = moments.haar_spread_uniformity(G, S, P, args.samples, args.seed)
        expected = 1.0 / report.component_size
        records = [
            _record(
                quantity="spread-uniformity",
                group=args.group,
                n=n,
                vertex=pauli.to_text(P),
                component_size=report.component_size,
                expected_mass=expected,
                off_component_max=report.off_component_max,
                samples=args.samples,
                seed=args.seed,
                reference="component-spread",
            )
        ]
        for key, est in zip(report.vertex_keys, report.masses):
            records.append(
                _record(
                    quantity="spread-uniformity-vertex",
                    vertex=pauli.to_text(pauli.from_key(key, n)),
                    mass=est.mean,
                    stderr=est.stderr,
                    expected_mass=expected,
                    reference="component-spread",
                )
            )
        return records
    raise ValidationError(f"unknown moments quantity {q!r}")


# ---------------------------------------------------------------------------
# discriminate subcommand (and the mixed-unitary alias)


def _result_record(kind_label: str, group: str, result) -> dict:
    cfg = result.config
    ens = cfg.ensemble
    params = {
        "depth": ens.depth,
        "gates": ens.gates,
        "region": list(cfg.region),
        "perturbation": pauli.to_text(cfg.perturbation),
        "samples": cfg.samples,
        "shot_mode": cfg.shot_mode,
        "lightcone_confined": result.lightcone_confined,
        "shallow_max_deviation": result.shallow_max_deviation,
    }
    return _record(
        experiment=kind_label,
        group=group,
        n=cfg.n,
        params=params,
        p_shallow=result.p_shallow.mean,
        p_shallow_stderr=result.p_shallow.stderr,
        p_haar=result.p_haar.mean,
        p_haar_stderr=result.p_haar.stderr,
        mc_bound=result.mc_bound,
        analytic_bound=result.analytic_bound,
        analytic_ref=result.analytic_reference,
        seed=cfg.seed,
    )


def _cmd_discriminate(args) -> list[dict]:
    n = args.n
    if args.experiment == "gate-count":
        if args.group != "matchgate":
            raise ValidationError("the gate-count experiment ships for the matchgate group")
        cfg = experiments.gatecount_config(
            n,
            args.samples,
            args.seed,
            gates=args.gates if args.gates is not None else 1,
            perturbation=_parse_vertex(args.vertex, n),
            shot_mode=args.shot_mode,
        )
        return [_result_record("gate-count", args.group, experiments.run_gatecount_discrimination(cfg))]
    group, run = args.group, experiments.run_depth_discrimination
    if args.experiment == "mixed-unitary":
        group = group if group in ("unitary", "mixed_unitary") else "mixed_unitary"
        run = experiments.run_mixed_unitary_discrimination
    cfg = experiments.depth_config(
        group,
        n,
        args.samples,
        args.seed,
        depth=args.depth,
        region=_parse_region(args.region, n),
        perturbation=_parse_vertex(args.vertex, n),
        adjacency=args.adjacency,
        shot_mode=args.shot_mode,
    )
    try:
        adj = groups.parse_adjacency(args.adjacency, n)
        if group == "matchgate":
            groups.check_matchgate_edges(adj)
    except ValidationError as exc:
        raise ValidationError(f"--adjacency {args.adjacency!r}: {exc}") from exc
    return [_result_record(args.experiment, group, run(cfg))]


# ---------------------------------------------------------------------------
# reproduce subcommand


def _check(target: str, name: str, predicted, measured, tolerance, stderr=None, reference="") -> dict:
    return _record(
        target=target,
        check=name,
        predicted=float(predicted),
        measured=float(measured),
        stderr=None if stderr is None else float(stderr),
        tolerance=float(tolerance),
        **{"pass": abs(float(measured) - float(predicted)) <= float(tolerance)},
        reference=reference,
    )


_P_ORTHOGONAL = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
_P_SYMPLECTIC = bounds.exact_haar_povm_probability("symplectic", 8, 4)
_P_MIXED = bounds.mixed_unitary_haar_probability(4, 2)

# Depth targets: (kind, n, samples, seed offset, exact Haar probability p, reference)
# on the default geometry; each row checks p_shallow = 1, p_haar = p and the
# bound 2 - 2p.
_DEPTH_TARGETS = {
    "eq6": (("matchgate", 4, 2500, 0, Fraction(5, 14), "depth-bound/matchgate"),),
    "eq9": (("orthogonal", 3, 4000, 0, _P_ORTHOGONAL, "depth-bound/orthogonal"),),
    "symplectic": (("symplectic", 3, 4000, 0, _P_SYMPLECTIC, "depth-bound/symplectic"),),
    "table1": (
        ("matchgate", 4, 1500, 0, Fraction(5, 14), "depth-bound/matchgate"),
        ("orthogonal", 3, 1500, 1, _P_ORTHOGONAL, "depth-bound/orthogonal"),
        ("symplectic", 3, 1500, 2, _P_SYMPLECTIC, "depth-bound/symplectic"),
        ("mixed_unitary", 2, 1500, 3, _P_MIXED, "depth-bound/mixed-unitary"),
    ),
}
# targets that also check 2 - 2p against the simplified closed-form bound
_RATIONAL_CROSSCHECKS = ("eq9", "symplectic")


def _rep_depth(target: str, seed: int) -> list[dict]:
    recs = []
    for kind, n, samples, offset, p, ref in _DEPTH_TARGETS[target]:
        cfg = experiments.depth_config(kind, n, samples, seed + offset)
        if kind == "mixed_unitary":
            result = experiments.run_mixed_unitary_discrimination(cfg)
        else:
            result = experiments.run_depth_discrimination(cfg)
        se = result.p_haar.stderr
        recs += [
            _check(
                target,
                f"{kind}-p-shallow-exact",
                1.0,
                result.p_shallow.mean,
                experiments.SHALLOW_EXACTNESS_TOL,
                reference=ref,
            ),
            _check(target, f"{kind}-p-haar", p, result.p_haar.mean, _tolerance(se), se, ref),
            _check(target, f"{kind}-bound", 2 - 2 * p, result.mc_bound, _tolerance(se, 10.0), se, ref),
        ]
        if target in _RATIONAL_CROSSCHECKS:
            closed_form = bounds.orthogonal_bound if kind == "orthogonal" else bounds.symplectic_bound
            closed = closed_form(1 << n, 1 << (n - 1))
            identity = bounds.discrimination_bound(Fraction(1), p) == closed
            recs.append(_check(target, "rational-crosscheck", 1.0, float(identity), 0.0, reference=ref))
    return recs


def _rep_cor4(seed):
    recs = []
    for n in (2, 3, 4):
        comps = cgraph.census(groups.matchgate_standard_set(n))
        sizes = sorted(c.size for c in comps)
        expected = sorted(math.comb(2 * n, k) for k in range(2 * n + 1))
        recs.append(
            _check("cor4", f"census-sizes-n{n}", 1.0, float(sizes == expected), 0.0, reference="component-census")
        )
    for n in (4, 6):
        P = experiments.default_perturbation("matchgate", n)
        recs.append(
            _check("cor4", f"majorana-count-n{n}", n - 1, pauli.majorana_count(P), 0.0, reference="majorana-weight")
        )
        exact, _ = cgraph.r_fraction(P, groups.matchgate_full_set(n), experiments.default_region(n))
        predicted = Fraction(math.comb(2 * n - 2, n - 1), math.comb(2 * n, n - 1))
        recs.append(
            _check("cor4", f"region-ratio-n{n}", float(predicted), float(exact), 0.0, reference="region-ratio")
        )
        agrees = bounds.pauli_compatible_bound(exact) == bounds.matchgate_depth_bound(n)
        recs.append(
            _check("cor4", f"bound-identity-n{n}", 1.0, float(agrees), 0.0, reference="region-ratio-bound")
        )
    return recs


def _rep_thm2(seed):
    target, ref = "thm2-matchgate", "gate-count-bound/ball-ratio"
    result = experiments.run_gatecount_discrimination(experiments.gatecount_config(3, 3000, seed, gates=1))
    se = result.p_haar.stderr
    recs = [
        _check(target, "gate-count-p-shallow-exact", 1.0, result.p_shallow.mean,
               experiments.SHALLOW_EXACTNESS_TOL, reference=ref),
        _check(target, "gate-count-p-haar", 0.5, result.p_haar.mean, _tolerance(se), se, ref),
    ]
    G, S = groups.group_spec("matchgate", 3), groups.generator_set("matchgate", 3, "full")
    report = moments.haar_spread_uniformity(G, S, pauli.PauliString(3, 0, 1), 2000, seed + 1)
    worst = max(abs(e.mean - 1.0 / report.component_size) for e in report.masses)
    worst_se = max(e.stderr for e in report.masses)
    ref = "component-spread"
    recs.append(_check(target, "spread-uniformity", 0.0, worst, _tolerance(worst_se), worst_se, ref))
    recs.append(
        _check(target, "off-component-mass", 0.0, report.off_component_max,
               experiments.SHALLOW_EXACTNESS_TOL, reference=ref)
    )
    return recs


def _rep_appendixC3(seed):
    recs = []
    for i, kind in enumerate(("orthogonal", "symplectic")):
        _, _, passed = _twirl_check(kind, 2, 6000, seed + i)
        recs.append(
            _check("appendixC3", f"{kind}-twirl-entrywise", 1.0, float(passed), 0.0,
                   reference="single-z-twirl-closed-form")
        )
    for kind, predicted, p in (("orthogonal", Fraction(9, 35), _P_ORTHOGONAL),
                               ("symplectic", Fraction(5, 27), _P_SYMPLECTIC)):
        recs.append(_check("appendixC3", f"povm-{kind}", predicted, p, 0.0, reference=f"haar-povm/{kind}"))
    return recs


def _rep_appendixD(seed):
    recs, ref = [], "frobenius-schur"
    cases = [
        ("unitary", 2, None, 0.0),
        ("orthogonal", 2, None, 1.0),
        ("symplectic", 2, None, -1.0),
        ("matchgate", 2, "even", -1.0),
    ]
    for i, (kind, n, sector, predicted) in enumerate(cases):
        G = groups.group_spec(kind, n)
        Pi = moments.even_parity_projector(n) if sector == "even" else None
        est = moments.frobenius_schur(G, Pi, 4000, seed + i)
        name = f"fs-{kind}" + (f"-{sector}" if sector else "")
        recs.append(_check("appendixD", name, predicted, est.mean, _tolerance(est.stderr), est.stderr, ref))
    est = moments.mixed_unitary_fs(4, 4000, seed + len(cases))
    recs.append(_check("appendixD", "fs-mixed-unitary", 2.0, est.mean, _tolerance(est.stderr), est.stderr, ref))
    return recs


def _rep_propC5(seed):
    ref = "conjugate-copy-commutant"
    cl = moments.mixed_unitary_commutant_dimension("clifford_enumeration", n=1)
    pa = moments.mixed_unitary_commutant_dimension("pauli_enumeration", n=1)
    ha = moments.mixed_unitary_commutant_dimension("haar_unitary", d=4, M=6000, seed=seed)
    return [
        _check("propC5", "clifford-commutant", 2.0, cl.mean, 1e-9, reference=ref),
        _check("propC5", "pauli-commutant", 4.0, pa.mean, 1e-9, reference=ref),
        _check("propC5", "haar-commutant", 2.0, ha.mean, _tolerance(ha.stderr), ha.stderr, ref),
    ]


_REPRODUCE = {
    "table1": (functools.partial(_rep_depth, "table1"), 11),
    "eq6": (functools.partial(_rep_depth, "eq6"), 6),
    "eq9": (functools.partial(_rep_depth, "eq9"), 9),
    "symplectic": (functools.partial(_rep_depth, "symplectic"), 27),
    "cor4": (_rep_cor4, 4),
    "thm2-matchgate": (_rep_thm2, 2),
    "appendixC3": (_rep_appendixC3, 33),
    "appendixD": (_rep_appendixD, 44),
    "propC5": (_rep_propC5, 55),
}
REPRODUCE_IDS = tuple(_REPRODUCE)


def _cmd_reproduce(args) -> list[dict]:
    fn, default_seed = _REPRODUCE[args.id]
    seed = args.seed if args.seed is not None else default_seed
    records = fn(seed)
    summary = _record(
        target=args.id,
        check="all",
        checks=len(records),
        **{"pass": all(r["pass"] for r in records)},
        seed=seed,
        reference="reproduction-suite",
    )
    return records + [summary]


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(p: _Parser, seed_default=0) -> None:
    p.add_argument("--seed", type=int, default=seed_default, help="master seed for all sample streams")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and must be >= 1; sampling is serial, because the "
        "per-sample work holds the GIL and two threads ran 1.0-1.9x slower than one",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write records here instead of stdout")
    p.add_argument("--config", default=None, help="JSON file of flag defaults; flags override")


def _add_experiment_flags(p: _Parser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--region", default=None)
    p.add_argument("--vertex", default=None)
    p.add_argument("--adjacency", default="chain")
    p.add_argument("--shot-mode", action="store_true")


def _graph_flags(g: _Parser) -> None:
    g.add_argument("--group", choices=CLI_GROUPS[:4], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--generator-set", choices=("standard", "full"), default="standard")
    g.add_argument("--census", action="store_true")
    g.add_argument("--balls", action="store_true", help="ball-size sweep from --vertex")
    g.add_argument("--r-region", default=None, help="comma-separated qubits for the region ratio")
    g.add_argument("--diameter", action="store_true")
    g.add_argument("--vertex", default=None, help="Pauli letters, e.g. XII")
    _add_common(g)
    g.set_defaults(func=_cmd_graph)


def _bounds_flags(b: _Parser) -> None:
    b.add_argument("--formula", choices=bounds.available_formulas(), required=True)
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--dL", type=int, default=None)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--p-shallow", dest="p_shallow", type=float, default=None)
    b.add_argument("--p-haar", dest="p_haar", type=float, default=None)
    b.add_argument("--r", default=None, help="rational like 5/14")
    b.add_argument("--ball", type=int, default=None)
    b.add_argument("--component", type=int, default=None)
    b.add_argument("--S-size", dest="S_size", type=int, default=None)
    b.add_argument("--N", dest="N", type=int, default=None)
    b.add_argument("--sweep", default=None, help="MIN:MAX[:STEP] over n (matchgate-depth)")
    _add_common(b)
    b.set_defaults(func=_cmd_bounds)


def _moments_flags(m: _Parser) -> None:
    m.add_argument(
        "--quantity",
        choices=(
            "second-moment-trace",
            "weingarten-check",
            "fs-indicator",
            "mixed-commutant",
            "spread-uniformity",
        ),
        required=True,
    )
    m.add_argument("--group", choices=CLI_GROUPS, default="orthogonal")
    m.add_argument("--n", type=int, default=None)
    m.add_argument("--d", type=int, default=None)
    m.add_argument("--samples", type=int, default=5000)
    m.add_argument("--vertex", default=None)
    m.add_argument("--region", default=None)
    m.add_argument(
        "--generator-set",
        choices=("standard", "full"),
        default=None,
        help="spread-uniformity set; default full for matchgate, standard for the other groups",
    )
    m.add_argument("--parity-sector", choices=("full", "even"), default="full")
    m.add_argument(
        "--source",
        choices=("haar_unitary", "clifford_enumeration", "pauli_enumeration"),
        default="haar_unitary",
    )
    _add_common(m)
    m.set_defaults(func=_cmd_moments)


def _discriminate_flags(d: _Parser) -> None:
    d.add_argument("--experiment", choices=("depth", "mixed-unitary", "gate-count"), required=True)
    d.add_argument("--group", choices=CLI_GROUPS, default="matchgate")
    d.add_argument("--gates", type=int, default=None)
    _add_experiment_flags(d)
    _add_common(d)
    d.set_defaults(func=_cmd_discriminate)


def _fs_indicator_flags(f: _Parser) -> None:
    f.add_argument("--group", choices=CLI_GROUPS, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--samples", type=int, default=5000)
    f.add_argument("--parity-sector", choices=("full", "even"), default="full")
    _add_common(f)
    f.set_defaults(func=_run_fs)


def _mixed_unitary_flags(x: _Parser) -> None:
    _add_experiment_flags(x)
    _add_common(x)
    x.set_defaults(
        func=_cmd_discriminate, experiment="mixed-unitary", group="mixed_unitary", gates=None
    )


def _reproduce_flags(r: _Parser) -> None:
    r.add_argument("--id", choices=REPRODUCE_IDS, required=True)
    _add_common(r, seed_default=None)
    r.set_defaults(func=_cmd_reproduce)


# subcommand: (help, the function that adds its flags), in the order of the usage line
SUBCOMMANDS = {
    "graph": ("commutator-graph censuses, balls, diameters", _graph_flags),
    "bounds": ("closed-form bound calculators", _bounds_flags),
    "moments": ("Monte Carlo moment quantities", _moments_flags),
    "discriminate": ("two-copy discrimination experiments", _discriminate_flags),
    "fs-indicator": ("Frobenius-Schur indicator of a group", _fs_indicator_flags),
    "mixed-unitary": ("conjugate-copy depth experiment", _mixed_unitary_flags),
    "reproduce": ("pre-configured desk-scale verification suites", _reproduce_flags),
}


def build_parser(subcommand: str | None = None) -> _Parser:
    """The CLI parser.  Every subcommand is registered with its help, so the
    usage, ``--help`` and a bad subcommand read the same; given a
    ``subcommand``, only the subparser of that name, if there is one, gets
    its flags (``-h`` too), since only it will parse.  With none, every
    subparser gets its flags."""
    parser = _Parser(prog="designgap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_flags) in SUBCOMMANDS.items():
        parses = subcommand is None or subcommand == name
        p = sub.add_parser(name, help=help_text, add_help=parses)
        if parses:
            add_flags(p)
    return parser


def _config_value(action: argparse.Action, value):
    """A --config value, checked and converted as the flag itself would be."""
    flag = action.option_strings[0] if action.option_strings else action.dest
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValidationError(f"--config sets {flag} to {value!r}; expected true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"--config sets {flag} to {value!r}; expected a single value")
    try:
        converted = (action.type or str)(str(value))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"--config sets {flag} to {value!r}: {exc}") from exc
    if action.choices is not None and converted not in action.choices:
        raise ValidationError(
            f"--config sets {flag} to {value!r}; choose from {', '.join(map(str, action.choices))}"
        )
    return converted


def _apply_config_file(parser: _Parser, argv: list[str]) -> None:
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return  # argparse will report the missing value
    path = argv[idx + 1]
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read --config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"--config file {path!r} must hold a JSON object of flag values")
    if not argv or argv[0].startswith("-"):
        raise ValidationError("--config needs a subcommand to apply to")
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices") and argv[0] in (action.choices or {}):
            subparser = action.choices[argv[0]]
            actions = {a.dest: a for a in subparser._actions}
            unknown = sorted(set(loaded) - set(actions))
            if unknown:
                raise ValidationError(f"--config file sets unknown flags: {unknown}")
            subparser.set_defaults(**{k: _config_value(actions[k], v) for k, v in loaded.items()})
            for dest in loaded:
                # a default satisfies required flags; explicit flags still win
                actions[dest].required = False
            return


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    started = time.perf_counter()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if not isinstance(args.threads, int) or args.threads < 1:
            raise ValidationError(f"--threads must be an integer >= 1, got {args.threads!r}")
        if args.seed is not None and not 0 <= args.seed < 2**63:
            raise ValidationError(f"--seed must be a nonnegative 63-bit integer, got {args.seed}")
        records = args.func(args)
        _emit(records, args.format, args.out)
        _manifest(args, time.perf_counter() - started)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"designgap: error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"designgap: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"designgap: invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
