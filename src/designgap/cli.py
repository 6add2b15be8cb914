"""Command-line front end: experiments, bounds, censuses, and moment checks.

Output is JSON-lines by default (one record per line, "schema": "v1", floats
rendered with 17 significant digits) or CSV via --format csv.  A run manifest
goes to stderr so that stdout stays byte-identical for a fixed seed and flag
set regardless of wall time or worker count.

Exit codes: 0 success, 1 validation problems (including unknown flags),
2 exceeded resource budgets, 3 a broken invariant (a failed self-check, which
points at the code rather than the input).
"""

from __future__ import annotations

import argparse
import csv
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

REPRODUCE_IDS = (
    "table1",
    "eq6",
    "eq9",
    "symplectic",
    "cor4",
    "thm2-matchgate",
    "appendixC3",
    "appendixD",
    "propC5",
)


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


def _parse_region(text: str | None, n: int):
    if text is None:
        return None
    try:
        region = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise ValidationError(f"--region expects comma-separated integers, got {text!r}") from exc
    if any(q < 0 or q >= n for q in region):
        raise ValidationError(f"--region {text!r} is out of range for n={n}")
    return region


def _parse_vertex(text: str | None, n: int):
    if text is None:
        return None
    P = pauli.from_text(text)
    if P.n != n:
        raise ValidationError(f"--vertex {text!r} has {P.n} letters, expected n={n}")
    return P


def _generator_set(group: str, n: int, which: str) -> cgraph.GeneratorSet:
    if which == "full":
        if group != "matchgate":
            raise ValidationError("--generator-set full applies to the matchgate group only")
        return groups.matchgate_full_set(n)
    if group == "matchgate":
        return groups.matchgate_standard_set(n)
    if group == "orthogonal":
        return groups.orthogonal_local_set(n)
    if group == "symplectic":
        return groups.symplectic_local_set(n)
    if group == "unitary":
        return groups.unitary_local_set(n)
    raise ValidationError(f"group {group!r} has no commutator-graph generator set")


def _group_for_sampling(group: str, n: int, which: str) -> groups.GroupSpec:
    G = groups.group_spec(group, n)
    if which == "full" and group == "matchgate":
        return groups.GroupSpec("matchgate", n, groups.matchgate_full_set(n), G.form)
    return G


# ---------------------------------------------------------------------------
# graph subcommand


def _cmd_graph(args) -> list[dict]:
    n = args.n
    S = _generator_set(args.group, n, args.generator_set)
    records: list[dict] = []
    did_something = False
    if args.census:
        did_something = True
        comps = cgraph.census(S)
        comps = sorted(comps, key=lambda c: (pauli.majorana_count(c.representative), min(c.members)))
        for i, comp in enumerate(comps):
            records.append(
                {
                    "schema": "v1",
                    "type": "component",
                    "group": args.group,
                    "n": n,
                    "component_id": i,
                    "size": len(comp.members),
                    "representative": pauli.to_text(comp.representative),
                    "majorana_count": pauli.majorana_count(comp.representative),
                    "reference": "component-census",
                }
            )
    vertex = _parse_vertex(args.vertex, n)
    if vertex is None and (args.balls or args.diameter or args.r_region is not None):
        vertex = experiments.gatecount_perturbation(n)
    if args.balls:
        did_something = True
        comp = cgraph.component(vertex, S)
        radius = max(comp.distances.values())
        size = len(comp.members)
        running = 0
        by_dist: dict[int, int] = {}
        for dist in comp.distances.values():
            by_dist[dist] = by_dist.get(dist, 0) + 1
        for N in range(radius + 1):
            running += by_dist.get(N, 0)
            records.append(
                {
                    "schema": "v1",
                    "type": "ball",
                    "group": args.group,
                    "n": n,
                    "vertex": pauli.to_text(vertex),
                    "N": N,
                    "ball_size": running,
                    "component_size": size,
                    "ratio": Fraction(running, size),
                    "reference": "component-ball-sweep",
                }
            )
    if args.r_region is not None:
        did_something = True
        region = _parse_region(args.r_region, n)
        exact, approx = cgraph.r_fraction(vertex, S, region)
        records.append(
            {
                "schema": "v1",
                "type": "region-ratio",
                "group": args.group,
                "n": n,
                "vertex": pauli.to_text(vertex),
                "region": list(region),
                "exact": exact,
                "value": approx,
                "reference": "region-ratio",
            }
        )
    if args.diameter:
        did_something = True
        comp = cgraph.component(vertex, S)
        result = cgraph.diameter(comp, S)
        records.append(
            {
                "schema": "v1",
                "type": "diameter",
                "group": args.group,
                "n": n,
                "vertex": pauli.to_text(vertex),
                "value": result.value,
                "mode": result.mode,
                "component_size": len(comp.members),
                "reference": "component-diameter",
            }
        )
    if not did_something:
        raise ValidationError("nothing to do: pass --census, --balls, --r-region, or --diameter")
    return records


# ---------------------------------------------------------------------------
# bounds subcommand


_BOUND_FLAG_DESTS = ("d", "dL", "n", "p_shallow", "p_haar", "r", "ball", "component", "S_size", "N")


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
        records = []
        for n in range(lo, hi + 1, step):
            rep = bounds.bound_report("matchgate-depth", n=n)
            records.append(
                {
                    "schema": "v1",
                    "type": "bound",
                    "formula": rep.formula,
                    "n": n,
                    "exact": rep.exact,
                    "value": rep.value,
                    "reference": rep.reference,
                }
            )
        return records
    rep = bounds.bound_report(args.formula, **_bound_inputs(args))
    return [
        {
            "schema": "v1",
            "type": "bound",
            "formula": rep.formula,
            "inputs": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rep.inputs.items()},
            "exact": rep.exact,
            "value": rep.value,
            "reference": rep.reference,
        }
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
        est = moments.mixed_unitary_fs(1 << args.n, args.samples, args.seed, args.threads)
        sector = "full"
    else:
        Pi = moments.even_parity_projector(args.n) if args.parity_sector == "even" else None
        est = moments.frobenius_schur(G, Pi, args.samples, args.seed, args.threads)
        sector = args.parity_sector
    return [
        {
            "schema": "v1",
            "quantity": "fs-indicator",
            "group": args.group,
            "n": args.n,
            "sector": sector,
            "mean": est.mean,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
            "analytic": _fs_analytic(args.group, args.n, sector),
            "reference": "frobenius-schur",
        }
    ]


def _analytic_haar_probability(config) -> float | None:
    analytic, _ = experiments._depth_analytic(config)
    if analytic is None:
        return None
    return 1.0 - analytic / 2.0


def _cmd_moments(args) -> list[dict]:
    q = args.quantity
    if q != "mixed-commutant" and args.n is None:
        raise ValidationError(f"--quantity {q} needs --n")
    if q == "fs-indicator":
        return _run_fs(args)
    if q == "second-moment-trace":
        n = args.n
        G = _group_for_sampling(args.group, n, "standard")
        V = _parse_vertex(args.vertex, n) or experiments.default_perturbation(args.group, n)
        region = _parse_region(args.region, n) or experiments.default_region(n)
        est = moments.mc_second_moment_trace(
            G, V, moments.SwapRegionTag(tuple(region)), args.samples, args.seed, args.threads
        )
        analytic = None
        try:
            cfg = experiments.ExperimentConfig(
                G, n, V, tuple(region), experiments.brickwork(0), args.samples, args.seed
            )
            p = _analytic_haar_probability(cfg)
            if p is not None:
                d_C = 1 << (n - len(set(region)))
                analytic = p * (1 << n) * d_C
        except (ValidationError, BudgetError):
            analytic = None
        return [
            {
                "schema": "v1",
                "quantity": "second-moment-trace",
                "group": args.group,
                "n": n,
                "vertex": pauli.to_text(V),
                "region": list(region),
                "mean": est.mean,
                "stderr": est.stderr,
                "samples": est.samples,
                "seed": est.seed,
                "analytic": analytic,
                "reference": "regional-swap-second-moment",
            }
        ]
    if q == "weingarten-check":
        if args.group not in ("orthogonal", "symplectic"):
            raise ValidationError("--quantity weingarten-check needs --group orthogonal|symplectic")
        n = args.n
        d = 1 << n
        G = groups.group_spec(args.group, n)
        V = pauli.PauliString(n, 0, 1)
        mean, stderr = moments.mc_second_moment_matrix(G, V, args.samples, args.seed, args.threads)
        closed = moments.second_moment_closed_form(args.group, n)
        dev = np.abs(mean - closed)
        allowed = np.maximum(5.0 * stderr, 1e-12)
        alpha, beta, gamma = moments.weingarten_coefficients(args.group, d)
        return [
            {
                "schema": "v1",
                "quantity": "weingarten-check",
                "group": args.group,
                "n": n,
                "alpha": alpha,
                "beta": beta,
                "gamma": gamma,
                "max_abs_deviation": float(dev.max()),
                "max_allowed": float(allowed.max()),
                "entrywise_pass": bool((dev <= allowed).all()),
                "samples": args.samples,
                "seed": args.seed,
                "reference": "single-z-twirl-closed-form",
            }
        ]
    if q == "mixed-commutant":
        est = moments.mixed_unitary_commutant_dimension(
            args.source, d=args.d, n=args.n, M=args.samples, seed=args.seed, threads=args.threads
        )
        analytic = {"clifford_enumeration": 2.0, "pauli_enumeration": None, "haar_unitary": 2.0}[
            args.source
        ]
        if args.source == "pauli_enumeration" and args.n is not None:
            analytic = float((1 << args.n) ** 2)
        return [
            {
                "schema": "v1",
                "quantity": "mixed-commutant",
                "source": args.source,
                "d": args.d,
                "n": args.n,
                "mean": est.mean,
                "stderr": est.stderr,
                "samples": est.samples,
                "seed": est.seed,
                "analytic": analytic,
                "reference": "conjugate-copy-commutant",
            }
        ]
    if q == "spread-uniformity":
        n = args.n
        G = _group_for_sampling(args.group, n, args.generator_set)
        P = _parse_vertex(args.vertex, n) or pauli.PauliString(n, 0, 1)
        report = moments.haar_spread_uniformity(G, P, args.samples, args.seed, args.threads)
        expected = 1.0 / report.component_size
        records = [
            {
                "schema": "v1",
                "quantity": "spread-uniformity",
                "group": args.group,
                "n": n,
                "vertex": pauli.to_text(P),
                "component_size": report.component_size,
                "expected_mass": expected,
                "off_component_max": report.off_component_max,
                "samples": args.samples,
                "seed": args.seed,
                "reference": "component-spread",
            }
        ]
        for key, est in zip(report.vertex_keys, report.masses):
            records.append(
                {
                    "schema": "v1",
                    "quantity": "spread-uniformity-vertex",
                    "vertex": pauli.to_text(pauli.from_key(key, n)),
                    "mass": est.mean,
                    "stderr": est.stderr,
                    "expected_mass": expected,
                    "reference": "component-spread",
                }
            )
        return records
    raise ValidationError(f"unknown moments quantity {q!r}")


# ---------------------------------------------------------------------------
# discriminate subcommand (and the mixed-unitary alias)


def _result_record(kind_label: str, group: str, result) -> dict:
    cfg = result.config
    ens = cfg.ensemble
    return {
        "schema": "v1",
        "experiment": kind_label,
        "group": group,
        "n": cfg.n,
        "params": {
            "depth": ens.depth,
            "gates": ens.gates,
            "region": list(cfg.region),
            "perturbation": pauli.to_text(cfg.perturbation),
            "samples": cfg.samples,
            "shot_mode": cfg.shot_mode,
            "lightcone_confined": result.lightcone_confined,
            "shallow_max_deviation": result.shallow_max_deviation,
        },
        "p_shallow": result.p_shallow.mean,
        "p_shallow_stderr": result.p_shallow.stderr,
        "p_haar": result.p_haar.mean,
        "p_haar_stderr": result.p_haar.stderr,
        "mc_bound": result.mc_bound,
        "analytic_bound": result.analytic_bound,
        "analytic_ref": result.analytic_reference,
        "seed": cfg.seed,
    }


def _cmd_discriminate(args) -> list[dict]:
    n = args.n
    if args.experiment == "depth":
        cfg = experiments.depth_config(
            args.group,
            n,
            args.samples,
            args.seed,
            depth=args.depth,
            region=_parse_region(args.region, n),
            perturbation=_parse_vertex(args.vertex, n),
            adjacency=args.adjacency,
            shot_mode=args.shot_mode,
        )
        result = experiments.run_depth_discrimination(cfg, args.threads)
        return [_result_record("depth", args.group, result)]
    if args.experiment == "mixed-unitary":
        group = args.group if args.group in ("unitary", "mixed_unitary") else "mixed_unitary"
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
        result = experiments.run_mixed_unitary_discrimination(cfg, args.threads)
        return [_result_record("mixed-unitary", group, result)]
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
        result = experiments.run_gatecount_discrimination(cfg, args.threads)
        return [_result_record("gate-count", args.group, result)]
    raise ValidationError(f"unknown experiment {args.experiment!r}")


# ---------------------------------------------------------------------------
# reproduce subcommand


def _check(target: str, name: str, predicted, measured, tolerance, stderr=None, reference="") -> dict:
    passed = abs(float(measured) - float(predicted)) <= float(tolerance)
    return {
        "schema": "v1",
        "target": target,
        "check": name,
        "predicted": float(predicted),
        "measured": float(measured),
        "stderr": None if stderr is None else float(stderr),
        "tolerance": float(tolerance),
        "pass": passed,
        "reference": reference,
    }


def _depth_target(target, kind, n, samples, seed, threads, p_exact, bound_exact, ref):
    cfg = experiments.depth_config(kind, n, samples, seed)
    run = (
        experiments.run_mixed_unitary_discrimination
        if kind == "mixed_unitary"
        else experiments.run_depth_discrimination
    )
    result = run(cfg, threads)
    recs = [
        _check(
            target,
            f"{kind}-p-shallow-exact",
            1.0,
            result.p_shallow.mean,
            experiments.SHALLOW_EXACTNESS_TOL,
            reference=ref,
        ),
        _check(
            target,
            f"{kind}-p-haar",
            float(p_exact),
            result.p_haar.mean,
            max(5.0 * result.p_haar.stderr, 1e-12),
            stderr=result.p_haar.stderr,
            reference=ref,
        ),
        _check(
            target,
            f"{kind}-bound",
            float(bound_exact),
            result.mc_bound,
            max(10.0 * result.p_haar.stderr, 1e-12),
            stderr=result.p_haar.stderr,
            reference=ref,
        ),
    ]
    return recs


def _rep_eq6(seed, threads):
    r = Fraction(5, 14)
    return _depth_target("eq6", "matchgate", 4, 2500, seed, threads, r, 2 - 2 * r, "depth-bound/matchgate")


def _rep_eq9(seed, threads):
    p = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
    recs = _depth_target("eq9", "orthogonal", 3, 4000, seed, threads, p, 2 - 2 * p, "depth-bound/orthogonal")
    identity = bounds.discrimination_bound(Fraction(1), p) == bounds.orthogonal_bound(8, 4)
    recs.append(_check("eq9", "rational-crosscheck", 1.0, 1.0 if identity else 0.0, 0.0, reference="depth-bound/orthogonal"))
    return recs


def _rep_symplectic(seed, threads):
    p = bounds.exact_haar_povm_probability("symplectic", 8, 4)
    recs = _depth_target(
        "symplectic", "symplectic", 3, 4000, seed, threads, p, 2 - 2 * p, "depth-bound/symplectic"
    )
    identity = bounds.discrimination_bound(Fraction(1), p) == bounds.symplectic_bound(8, 4)
    recs.append(
        _check("symplectic", "rational-crosscheck", 1.0, 1.0 if identity else 0.0, 0.0, reference="depth-bound/symplectic")
    )
    return recs


def _rep_table1(seed, threads):
    recs = []
    recs += _depth_target(
        "table1", "matchgate", 4, 1500, seed, threads, Fraction(5, 14), Fraction(9, 7), "depth-bound/matchgate"
    )
    po = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
    recs += _depth_target("table1", "orthogonal", 3, 1500, seed + 1, threads, po, 2 - 2 * po, "depth-bound/orthogonal")
    ps = bounds.exact_haar_povm_probability("symplectic", 8, 4)
    recs += _depth_target("table1", "symplectic", 3, 1500, seed + 2, threads, ps, 2 - 2 * ps, "depth-bound/symplectic")
    pm = bounds.mixed_unitary_haar_probability(4, 2)
    recs += _depth_target("table1", "mixed_unitary", 2, 1500, seed + 3, threads, pm, 2 - 2 * pm, "depth-bound/mixed-unitary")
    return recs


def _rep_cor4(seed, threads):
    recs = []
    for n in (2, 3, 4):
        comps = cgraph.census(groups.matchgate_standard_set(n))
        sizes = sorted(len(c.members) for c in comps)
        expected = sorted(math.comb(2 * n, k) for k in range(2 * n + 1))
        recs.append(
            _check("cor4", f"census-sizes-n{n}", 1.0, 1.0 if sizes == expected else 0.0, 0.0, reference="component-census")
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
            _check("cor4", f"bound-identity-n{n}", 1.0, 1.0 if agrees else 0.0, 0.0, reference="region-ratio-bound")
        )
    return recs


def _rep_thm2(seed, threads):
    cfg = experiments.gatecount_config(3, 3000, seed, gates=1)
    result = experiments.run_gatecount_discrimination(cfg, threads)
    recs = [
        _check(
            "thm2-matchgate",
            "gate-count-p-shallow-exact",
            1.0,
            result.p_shallow.mean,
            experiments.SHALLOW_EXACTNESS_TOL,
            reference="gate-count-bound/ball-ratio",
        ),
        _check(
            "thm2-matchgate",
            "gate-count-p-haar",
            0.5,
            result.p_haar.mean,
            max(5.0 * result.p_haar.stderr, 1e-12),
            stderr=result.p_haar.stderr,
            reference="gate-count-bound/ball-ratio",
        ),
    ]
    G = groups.GroupSpec("matchgate", 3, groups.matchgate_full_set(3), groups.matchgate_form_1(3))
    report = moments.haar_spread_uniformity(G, pauli.PauliString(3, 0, 1), 2000, seed + 1, threads)
    worst = max(abs(e.mean - 1.0 / report.component_size) for e in report.masses)
    allow = max(max(5.0 * e.stderr for e in report.masses), 1e-12)
    recs.append(
        _check(
            "thm2-matchgate",
            "spread-uniformity",
            0.0,
            worst,
            allow,
            stderr=max(e.stderr for e in report.masses),
            reference="component-spread",
        )
    )
    recs.append(
        _check(
            "thm2-matchgate",
            "off-component-mass",
            0.0,
            report.off_component_max,
            experiments.SHALLOW_EXACTNESS_TOL,
            reference="component-spread",
        )
    )
    return recs


def _rep_appendixC3(seed, threads):
    recs = []
    for kind in ("orthogonal", "symplectic"):
        mean, stderr = moments.mc_second_moment_matrix(
            groups.group_spec(kind, 2), pauli.PauliString(2, 0, 1), 6000, seed, threads
        )
        closed = moments.second_moment_closed_form(kind, 2)
        dev = np.abs(mean - closed)
        allowed = np.maximum(5.0 * stderr, 1e-12)
        recs.append(
            _check(
                "appendixC3",
                f"{kind}-twirl-entrywise",
                1.0,
                1.0 if bool((dev <= allowed).all()) else 0.0,
                0.0,
                reference="single-z-twirl-closed-form",
            )
        )
        seed += 1
    po = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
    ps = bounds.exact_haar_povm_probability("symplectic", 8, 4)
    recs.append(_check("appendixC3", "povm-orthogonal", float(Fraction(9, 35)), float(po), 0.0, reference="haar-povm/orthogonal"))
    recs.append(_check("appendixC3", "povm-symplectic", float(Fraction(5, 27)), float(ps), 0.0, reference="haar-povm/symplectic"))
    return recs


def _rep_appendixD(seed, threads):
    recs = []
    cases = [
        ("unitary", 2, None, 0.0),
        ("orthogonal", 2, None, 1.0),
        ("symplectic", 2, None, -1.0),
        ("matchgate", 2, "even", -1.0),
    ]
    for i, (kind, n, sector, predicted) in enumerate(cases):
        G = groups.group_spec(kind, n)
        Pi = moments.even_parity_projector(n) if sector == "even" else None
        est = moments.frobenius_schur(G, Pi, 4000, seed + i, threads)
        recs.append(
            _check(
                "appendixD",
                f"fs-{kind}" + (f"-{sector}" if sector else ""),
                predicted,
                est.mean,
                max(5.0 * est.stderr, 1e-12),
                stderr=est.stderr,
                reference="frobenius-schur",
            )
        )
    est = moments.mixed_unitary_fs(4, 4000, seed + len(cases), threads)
    recs.append(
        _check(
            "appendixD",
            "fs-mixed-unitary",
            2.0,
            est.mean,
            max(5.0 * est.stderr, 1e-12),
            stderr=est.stderr,
            reference="frobenius-schur",
        )
    )
    return recs


def _rep_propC5(seed, threads):
    recs = []
    cl = moments.mixed_unitary_commutant_dimension("clifford_enumeration", n=1)
    recs.append(_check("propC5", "clifford-commutant", 2.0, cl.mean, 1e-9, reference="conjugate-copy-commutant"))
    pa = moments.mixed_unitary_commutant_dimension("pauli_enumeration", n=1)
    recs.append(_check("propC5", "pauli-commutant", 4.0, pa.mean, 1e-9, reference="conjugate-copy-commutant"))
    ha = moments.mixed_unitary_commutant_dimension("haar_unitary", d=4, M=6000, seed=seed, threads=threads)
    recs.append(
        _check(
            "propC5",
            "haar-commutant",
            2.0,
            ha.mean,
            max(5.0 * ha.stderr, 1e-12),
            stderr=ha.stderr,
            reference="conjugate-copy-commutant",
        )
    )
    return recs


_REPRODUCE = {
    "table1": (_rep_table1, 11),
    "eq6": (_rep_eq6, 6),
    "eq9": (_rep_eq9, 9),
    "symplectic": (_rep_symplectic, 27),
    "cor4": (_rep_cor4, 4),
    "thm2-matchgate": (_rep_thm2, 2),
    "appendixC3": (_rep_appendixC3, 33),
    "appendixD": (_rep_appendixD, 44),
    "propC5": (_rep_propC5, 55),
}


def _cmd_reproduce(args) -> list[dict]:
    if args.id not in _REPRODUCE:
        raise ValidationError(f"unknown reproduce id {args.id!r}; known: {REPRODUCE_IDS}")
    fn, default_seed = _REPRODUCE[args.id]
    seed = args.seed if args.seed is not None else default_seed
    records = fn(seed, args.threads)
    summary = {
        "schema": "v1",
        "target": args.id,
        "check": "all",
        "checks": len(records),
        "pass": all(r["pass"] for r in records),
        "seed": seed,
        "reference": "reproduction-suite",
    }
    return records + [summary]


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(p: _Parser, seed_default=0) -> None:
    p.add_argument("--seed", type=int, default=seed_default, help="master seed for all sample streams")
    p.add_argument("--threads", type=int, default=1, help="worker threads (results are identical)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write records here instead of stdout")
    p.add_argument("--config", default=None, help="JSON file of flag defaults; flags override")


def build_parser() -> _Parser:
    parser = _Parser(prog="designgap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("graph", parents=[], help="commutator-graph censuses, balls, diameters")
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

    b = sub.add_parser("bounds", help="closed-form bound calculators")
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

    m = sub.add_parser("moments", help="Monte Carlo moment quantities")
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
    m.add_argument("--generator-set", choices=("standard", "full"), default="full")
    m.add_argument("--parity-sector", choices=("full", "even"), default="full")
    m.add_argument(
        "--source",
        choices=("haar_unitary", "clifford_enumeration", "pauli_enumeration"),
        default="haar_unitary",
    )
    _add_common(m)
    m.set_defaults(func=_cmd_moments)

    d = sub.add_parser("discriminate", help="two-copy discrimination experiments")
    d.add_argument("--experiment", choices=("depth", "mixed-unitary", "gate-count"), required=True)
    d.add_argument("--group", choices=CLI_GROUPS, default="matchgate")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--depth", type=int, default=None)
    d.add_argument("--gates", type=int, default=None)
    d.add_argument("--samples", type=int, default=20000)
    d.add_argument("--region", default=None)
    d.add_argument("--vertex", default=None)
    d.add_argument("--adjacency", default="chain")
    d.add_argument("--shot-mode", action="store_true")
    _add_common(d)
    d.set_defaults(func=_cmd_discriminate)

    f = sub.add_parser("fs-indicator", help="Frobenius-Schur indicator of a group")
    f.add_argument("--group", choices=CLI_GROUPS, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--samples", type=int, default=5000)
    f.add_argument("--parity-sector", choices=("full", "even"), default="full")
    _add_common(f)
    f.set_defaults(func=_run_fs)

    x = sub.add_parser("mixed-unitary", help="conjugate-copy depth experiment")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--depth", type=int, default=None)
    x.add_argument("--samples", type=int, default=20000)
    x.add_argument("--region", default=None)
    x.add_argument("--vertex", default=None)
    x.add_argument("--adjacency", default="chain")
    x.add_argument("--shot-mode", action="store_true")
    _add_common(x)
    x.set_defaults(func=_cmd_mixed_alias)

    r = sub.add_parser("reproduce", help="pre-configured desk-scale verification suites")
    r.add_argument("--id", choices=REPRODUCE_IDS, required=True)
    _add_common(r, seed_default=None)
    r.set_defaults(func=_cmd_reproduce)
    return parser


def _cmd_mixed_alias(args) -> list[dict]:
    args.experiment = "mixed-unitary"
    args.group = "mixed_unitary"
    args.gates = None
    return _cmd_discriminate(args)


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
            known = {a.dest for a in subparser._actions}
            unknown = sorted(set(loaded) - known)
            if unknown:
                raise ValidationError(f"--config file sets unknown flags: {unknown}")
            subparser.set_defaults(**loaded)
            for a in subparser._actions:
                # a default satisfies required flags; explicit flags still win
                if a.dest in loaded:
                    a.required = False
            return


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.perf_counter()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if not isinstance(args.threads, int) or args.threads < 1:
            raise ValidationError(f"--threads must be an integer >= 1, got {args.threads!r}")
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
