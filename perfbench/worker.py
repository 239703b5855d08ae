"""One measured pass over a workload's operations, in a fresh interpreter.

    python3 worker.py PLAN.json [--trace] [--setup-only]

Imports icsie and icsie.cli, parses every instance and generator file of
the plan (together: the set-up time), then runs the operations one at a
time, each timed on its own.  CLI operations go through click's
CliRunner in this process; library operations call icsie directly.

Between operations, at most every REF_EVERY_S, the worker times a fixed
pure-Python reference loop; each operation and the set-up get the mean
of the reference times taken just before and just after them, so the
caller can rescale them to one machine speed.

Prints one JSON line with the timings, each operation's raw output and,
with --trace, the per-layer span summary.  Answers are checked by the
caller, outside the timed region.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

clock = time.perf_counter
REF_EVERY_S = 0.1
REF_ITERATIONS = 20000
SETUP_REF_REPEAT = 3


def _step(acc: int, x: int) -> int:
    return (acc * 31 + x) & 0xFFFFF


def reference(repeat: int = 1) -> float:
    """Mean time of a fixed loop of the kind the library runs: integer and
    bit arithmetic, list indexing, a function call, a dict update."""
    table = list(range(64))
    seen: dict[int, int] = {}
    acc = 0
    start = clock()
    for i in range(REF_ITERATIONS * repeat):
        acc = _step(acc, table[i & 63] ^ (i >> 3))
        seen[acc & 255] = i
    return (clock() - start) / repeat


def validity(lib, spec, G):
    return {"valid": lib.codeset.is_valid_generator(spec, G)[0],
            "oracle": lib.codeset.oracle_decodable(spec, G)}


def family(lib, spec):
    """The sweep's calls on one instance, in the order a researcher makes
    them: the optimum and minrank, the bounds report, the delta_c = 1
    optimum and l_q, then both validity routes on the witness."""
    N, G = lib.encoder.optimal_length(spec)
    M, _ = lib.encoder.minrank(spec)
    report = lib.structure.bounds_report(spec, compute_exact=False)
    Ng, Gg = lib.encoder.optimal_length(replace(spec, delta_c=1))
    return {"N": N, "G": G.to_lists(), "minrank": M,
            "bounds": {name: [e.kind, e.value, e.target]
                       for name, e in report.entries.items()},
            "consistent": report.consistent(),
            "N_dc1": Ng, "G_dc1": Gg.to_lists(),
            "l_q": lib.encoder.l_q(2, N, 3),
            **validity(lib, spec, G)}


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    traced = "--trace" in sys.argv
    ref0 = reference(SETUP_REF_REPEAT)
    t0 = clock()
    sys.path.insert(0, plan["src"])
    import icsie
    import icsie.cli
    if not icsie.__file__.startswith(plan["src"]):
        sys.exit(f"icsie imported from {icsie.__file__}, not {plan['src']}")
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    specs = {p: icsie.sigraph.parse_instance(Path(p).read_text())
             for p in plan["instances"]}
    gens = {p: icsie.encoder.parse_generator(Path(p).read_text())
            for p in plan["generators"]}
    setup_s = clock() - t0
    refs = [reference(SETUP_REF_REPEAT)]
    out = {"setup_s": setup_s, "setup_ref_s": (ref0 + refs[0]) / 2,
           "backend": icsie.KERNEL_BACKEND}
    if "--setup-only" in sys.argv:
        print(json.dumps(out))
        return

    from click.testing import CliRunner
    runner = CliRunner()
    main_cmd = icsie.cli.main

    def run_cli(argv):
        res = runner.invoke(main_cmd, argv)
        err = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            err = "".join(traceback.format_exception(res.exception))
        return {"exit": res.exit_code, "stdout": res.stdout,
                "stderr": res.stderr, "error": err}

    def run_lib(op):
        args = op["args"]
        try:
            if op["call"] == "validity":
                value = validity(icsie, specs[args["inst"]], gens[args["gen"]])
            else:
                value = family(icsie, specs[args["inst"]])
            return {"value": value, "error": None}
        except Exception:
            return {"value": None, "error": traceback.format_exc()}

    results = []
    ref_at = []
    last_ref = clock()
    for op in plan["ops"]:
        if clock() - last_ref > REF_EVERY_S:
            refs.append(reference())
            last_ref = clock()
        ref_at.append(len(refs) - 1)
        is_cli = op["kind"] == "cli"
        call, arg = (run_cli, op["argv"]) if is_cli else (run_lib, op)
        start = clock()
        if tracer is None:
            res = call(arg)
        else:
            res = tracer.root("cli" if is_cli else "op")(call, arg)
        res["t"] = clock() - start
        results.append(res)
    refs.append(reference())
    for res, k in zip(results, ref_at):
        res["ref"] = (refs[k] + refs[k + 1]) / 2
    out["ops"] = results
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
