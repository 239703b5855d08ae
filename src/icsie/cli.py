"""Command-line front end.

Subcommands: validate, search, encode, decode, analyze, simulate.
``search`` only loads, calls and prints: its answer, and with
``--method both`` the check of one exact route against the other, come
from ``encoder.optimum``, whose MismatchError is printed as a MISMATCH
line.
Exit codes: 0 ok, 1 domain failure, 2 parse error, 3 budget exceeded.
All output is deterministic given (inputs, flags, seed); --json switches
to machine-readable JSON.
"""

from __future__ import annotations

import json
import sys

import click

from .codeset import oracle_decodable
from .decoder import decode_receiver
from .encoder import generator_doc, optimum, parse_generator
from .errors import (BudgetExceededError, DegenerateError, IcsieError,
                     InconsistentError, MismatchError, NoSolutionError,
                     ParseError)
from .linalg import Matrix
from .sigraph import ProblemSpec, parse_instance
from .simulation import SimulationConfig, run_simulation
from .structure import bounds_report

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read, or is not
    UTF-8, is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> ProblemSpec:
    return parse_instance(_read(path))


def _load_generator(path: str, spec: ProblemSpec) -> Matrix:
    G = parse_generator(_read(path))
    if G.field.q != spec.q or G.nrows != spec.graph.n:
        raise ParseError(
            f"generator is {G.nrows} rows over F_{G.field.q}, "
            f"instance needs {spec.graph.n} rows over F_{spec.q}")
    return G


def _parse_vector(text: str, q: int, what: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{what} must be comma-separated integers") from exc
    for v in vals:
        if not 0 <= v < q:
            raise ParseError(f"{what} entry {v} outside [0, {q})")
    return vals


def _emit(as_json: bool, doc: dict, lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


@click.group()
def main() -> None:
    """Index coding with erroneous side information: search, decode, analyze."""


def _run(fn) -> None:
    try:
        fn()
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except MismatchError as exc:
        click.echo(f"MISMATCH: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)
    except IcsieError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def validate(instance: str, as_json: bool) -> None:
    """Check an instance file for semantic violations."""
    def go():
        spec = _load_instance(instance)
        problems = spec.graph.validate()
        _emit(as_json,
              {"valid": not problems, "violations": problems},
              problems or ["ok"])
        if problems:
            sys.exit(EXIT_DOMAIN)
    _run(go)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--method", type=click.Choice(["minrank", "brute", "both"]),
              default="both", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def search(instance: str, method: str, as_json: bool) -> None:
    """Find the optimal codelength and a witness generator."""
    def go():
        N, G = optimum(_load_instance(instance), method)
        _emit(as_json,
              {"N": N, "method": method,
               "G": generator_doc(G)},
              [f"N = {N}",
               "G ="] + ["  " + " ".join(str(v) for v in row) for row in G.rows])
    _run(go)


@main.command()
@click.argument("instance", type=click.Path())
@click.argument("generator", type=click.Path())
@click.option("--x", "x_text", required=True,
              help="message vector, comma-separated")
@click.option("--json", "as_json", is_flag=True)
def encode(instance: str, generator: str, x_text: str, as_json: bool) -> None:
    """Encode a message vector with a generator matrix."""
    def go():
        spec = _load_instance(instance)
        G = _load_generator(generator, spec)
        x = _parse_vector(x_text, spec.q, "--x")
        if len(x) != spec.graph.n:
            raise ParseError(f"--x must have n = {spec.graph.n} entries")
        y = G.vec_mul(x)
        _emit(as_json, {"y": list(y)},
              ["y = " + ",".join(str(v) for v in y)])
    _run(go)


def _parse_xhat(spec: ProblemSpec, pairs: tuple[str, ...]) -> dict[int, tuple[int, ...]]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParseError("--xhat needs the form receiver=v,v,...")
        left, right = pair.split("=", 1)
        try:
            i = int(left)
        except ValueError as exc:
            raise ParseError(f"bad receiver index {left!r}") from exc
        if not 1 <= i <= spec.graph.m:
            raise ParseError(f"receiver {i} out of range")
        if i in out:
            raise ParseError(f"receiver {i} given twice")
        # an empty right side is the empty snapshot of an empty cache
        vec = _parse_vector(right, spec.q, f"--xhat {i}") if right else ()
        if len(vec) != len(spec.graph.X[i - 1]):
            raise ParseError(
                f"receiver {i} caches {len(spec.graph.X[i - 1])} packets, "
                f"--xhat gave {len(vec)}")
        out[i] = vec
    return out


@main.command()
@click.argument("instance", type=click.Path())
@click.argument("generator", type=click.Path())
@click.option("--y", "y_text", required=True, help="received codeword")
@click.option("--xhat", "xhat_pairs", multiple=True, required=True,
              help="receiver=v,v,... cache snapshot in ascending cache order")
@click.option("--truth", "truth_text", default=None,
              help="true message for cross-checking recovered symbols")
@click.option("--json", "as_json", is_flag=True)
def decode(instance: str, generator: str, y_text: str,
           xhat_pairs: tuple[str, ...], truth_text: str | None,
           as_json: bool) -> None:
    """Run syndrome decoding for the given receivers."""
    def go():
        spec = _load_instance(instance)
        if spec.delta_c != 0:
            raise IcsieError("decoding requires delta_c = 0 (error-free channel)")
        G = _load_generator(generator, spec)
        y = _parse_vector(y_text, spec.q, "--y")
        if len(y) != G.ncols:
            raise ParseError(f"--y must have {G.ncols} entries")
        xhats = _parse_xhat(spec, xhat_pairs)
        truth = (_parse_vector(truth_text, spec.q, "--truth")
                 if truth_text is not None else None)
        if truth is not None and len(truth) != spec.graph.n:
            raise ParseError(f"--truth must have n = {spec.graph.n} entries")
        doc, lines, failed = {}, [], False
        for i, x_hat in sorted(xhats.items()):
            try:
                value, trace = decode_receiver(
                    G, spec.graph, i, y, x_hat, spec.delta_s)
            except (NoSolutionError, InconsistentError,
                    DegenerateError) as exc:
                doc[str(i)] = {"error": str(exc)}
                lines.append(f"receiver {i}: FAILED ({exc})")
                failed = True
                continue
            entry = {
                "value": value,
                "syndrome": list(trace.syndrome),
                "correction": list(trace.correction),
                "suspected": list(trace.suspected),
            }
            line = (f"receiver {i}: x_{spec.graph.f[i - 1]} = {value}"
                    f"  syndrome={','.join(map(str, trace.syndrome))}"
                    f"  suspected={list(trace.suspected)}")
            if truth is not None:
                want = truth[spec.graph.f[i - 1] - 1]
                entry["correct"] = value == want
                if value != want:
                    line += f"  WRONG (truth {want})"
                    failed = True
            doc[str(i)] = entry
            lines.append(line)
        _emit(as_json, {"receivers": doc}, lines)
        if failed:
            sys.exit(EXIT_DOMAIN)
    _run(go)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def analyze(instance: str, as_json: bool) -> None:
    """Cycle structure, independence number and the bounds report."""
    def go():
        spec = _load_instance(instance)
        report = bounds_report(spec)
        cycles, witness, packing = (report.cycles, report.gamma_witness,
                                    report.packing)
        gam, beta = report.entries["gamma"].value, len(packing)
        doc = {
            "cycles": [sorted(c.packets) for c in cycles],
            "gamma": gam,
            "gamma_witness": sorted(witness),
            "beta": beta,
            "packing": [sorted(B) for B in packing],
            "bounds": report.to_doc(),
        }
        lines = []
        if cycles:
            lines.append("minimal cycle sets: "
                         + "; ".join("{" + ",".join(map(str, sorted(c.packets))) + "}"
                                     for c in cycles))
        else:
            lines.append(f"acyclic: N_opt = n = {spec.graph.n}")
        lines.append(f"gamma = {gam}  (witness {sorted(witness)})")
        lines.append(f"beta = {beta}")
        for name, e in sorted(report.entries.items()):
            lines.append(f"bound {name}: {e.kind} {e.value} ({e.target}) "
                         f"- {e.provenance}")
        if report.n_opt is not None:
            lines.append(f"N_opt = {report.n_opt}")
        for note in report.notes:
            lines.append(f"note: {note}")
        _emit(as_json, doc, lines)
        if not report.consistent():
            click.echo("bounds report inconsistent", err=True)
            sys.exit(EXIT_DOMAIN)
    _run(go)


@main.command()
@click.argument("instance", type=click.Path())
@click.argument("generator", type=click.Path())
@click.option("--trials", default="exhaustive", show_default=True,
              help="trial count; a count needs --mode random")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--mode", type=click.Choice(["random", "adversarial-exhaustive"]),
              default="adversarial-exhaustive", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def simulate(instance: str, generator: str, trials: str, seed: int,
             mode: str, as_json: bool) -> None:
    """Decode under injected cache errors and report recovery rates."""
    def go():
        spec = _load_instance(instance)
        G = _load_generator(generator, spec)
        count = trials
        if mode == "random":
            try:
                count = int(trials)
            except ValueError:
                count = 0
            if count < 1:
                raise ParseError(
                    "--trials must be a positive integer with --mode random")
        elif trials != "exhaustive":
            raise ParseError("--mode adversarial-exhaustive runs every "
                             "trial; a trial count needs --mode random")
        if seed < 0:
            raise ParseError(f"--seed must be an integer >= 0, got {seed}")
        if spec.delta_c > 0:
            ok = oracle_decodable(spec, G)
            _emit(as_json, {"feasible": ok},
                  [f"sphere feasibility: {'ok' if ok else 'FAIL'}"])
            if not ok:
                sys.exit(EXIT_DOMAIN)
            return
        config = SimulationConfig(trials=count, seed=seed)
        report = run_simulation(spec, G, config)
        doc = {
            "rates": {str(i): r for i, r in report.rates().items()},
            "ok": report.ok,
            "witnesses": [
                {"receiver": i, "x": list(x),
                 "offsets": {str(k): v for k, v in off.items()}}
                for i, x, off in report.witnesses],
        }
        lines = [f"receiver {i}: {ok}/{tot} recovered"
                 for i, (ok, tot) in sorted(report.per_receiver.items())]
        lines.append("overall: " + ("PASS" if report.ok else "FAIL"))
        for i, x, off in report.witnesses:
            lines.append(f"witness: receiver {i} x={list(x)} offsets={off}")
        _emit(as_json, doc, lines)
        if not report.ok:
            sys.exit(EXIT_DOMAIN)
    _run(go)


if __name__ == "__main__":
    main()
