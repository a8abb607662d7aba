#!/usr/bin/env python3
"""CI gate: evaluate bench/gates.json over bench JSON dumps.

Usage:
    check_perf.py [--baseline=BENCH_perf_smoke.json] DUMP.json [DUMP.json ...]
    check_perf.py --self-test --baseline=B.json DUMP.json ...

Each dump is one bench's --json output ({"bench": name, "rows": [...]}).
Every gate whose bench has a dump is evaluated; gates of benches without a
dump are listed as not run. Exit status 1 if any gate fails.

A gate entry is:
    id      unique name, printed on failure
    bench   the dump it reads
    row     selector: field -> value (or list of allowed values); every
            matching row is gated, and a selector matching no row fails
    when    optional [field, op, value]: rows failing it are skipped
    metric  field of the gated row
    per     optional reference: the metric is divided by it (a
            non-positive or missing denominator fails)
    op      one of == != < <= > >=
    bound   a number, or a reference
A reference is a field name of the gated row, or an object
{"field": f, "row": selector, "same": [fields], "dump": "baseline"}: field f
of the one row of the bench's dump (or the --baseline dump) that matches
`row` and agrees with the gated row on every `same` field.

--self-test checks the evaluator itself: the given dumps must pass every
gate, and for each gate, moving its metric field just past the bound (in
the first gated row) must fail with that gate's id.
"""

import argparse
import copy
import json
import math
import operator
import os
import sys

OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}
GATES = os.path.join(os.path.dirname(__file__), "..", "bench", "gates.json")


class GateError(Exception):
    pass


def matches(row, selector):
    for field, want in selector.items():
        allowed = want if isinstance(want, list) else [want]
        if field not in row or row[field] not in allowed:
            return False
    return True


def resolve(ref, row, rows, baseline):
    if isinstance(ref, str):
        ref = {"field": ref}
    if "row" not in ref and "same" not in ref and "dump" not in ref:
        source = row
    else:
        pool = rows
        if ref.get("dump") == "baseline":
            if baseline is None:
                raise GateError("needs --baseline")
            pool = baseline
        found = [r for r in pool if matches(r, ref.get("row", {})) and
                 all(r.get(f) == row.get(f) for f in ref.get("same", []))]
        if len(found) != 1:
            raise GateError(f"{len(found)} rows match reference {ref}")
        source = found[0]
    if ref["field"] not in source:
        raise GateError(f"reference field {ref['field']} missing")
    return source[ref["field"]]


def value_of(gate, row, rows, baseline):
    if gate["metric"] not in row:
        raise GateError(f"field {gate['metric']} missing")
    value = row[gate["metric"]]
    if "per" in gate:
        den = resolve(gate["per"], row, rows, baseline)
        if not isinstance(den, (int, float)) or den <= 0:
            raise GateError(f"non-positive denominator {den}")
        value = value / den
    return value


def bound_of(gate, row, rows, baseline):
    bound = gate["bound"]
    if isinstance(bound, (int, float)):
        return bound
    return resolve(bound, row, rows, baseline)


def gated_rows(gate, rows):
    """Rows the gate applies to; raises if its selector matches none."""
    selected = [r for r in rows if matches(r, gate["row"])]
    if not selected:
        raise GateError(f"no row matches {gate['row']}")
    when = gate.get("when")
    return [r for r in selected
            if when is None or (when[0] in r and OPS[when[1]](r[when[0]], when[2]))]


def evaluate(gates, dumps, baseline, quiet=False):
    """Returns the ids of failed gates."""
    failed = []

    def report(status, gate, detail):
        if not quiet:
            print(f"{status:<5} {gate['id']:<40} {detail}")
        if status == "FAIL" and gate["id"] not in failed:
            failed.append(gate["id"])

    missing = sorted({g["bench"] for g in gates} - set(dumps))
    if missing and not quiet:
        print(f"not run (no dump): {', '.join(missing)}")
    for gate in gates:
        rows = dumps.get(gate["bench"])
        if rows is None:
            continue
        try:
            selected = gated_rows(gate, rows)
        except GateError as e:
            report("FAIL", gate, str(e))
            continue
        if not selected:
            report("skip", gate, f"`when` {gate['when']} holds for no row")
        for row in selected:
            label = " ".join(str(row[f]) for f in gate["row"])
            try:
                value = value_of(gate, row, rows, baseline)
                bound = bound_of(gate, row, rows, baseline)
                ok = type(value) is type(bound) or (
                    isinstance(value, (int, float)) and
                    isinstance(bound, (int, float)))
                ok = ok and OPS[gate["op"]](value, bound)
            except GateError as e:
                report("FAIL", gate, f"[{label}] {e}")
                continue
            shown = f"{value:.4g}" if isinstance(value, float) else value
            report("PASS" if ok else "FAIL", gate,
                   f"[{label}] {shown} {gate['op']} {bound}")
    return failed


def load_dumps(paths):
    dumps = {}
    for path in paths:
        with open(path) as f:
            dump = json.load(f)
        if dump["bench"] in dumps:
            sys.exit(f"error: two dumps of {dump['bench']}")
        dumps[dump["bench"]] = dump.get("rows", [])
    return dumps


def past_bound(field_value, target, op):
    """A value for a metric field whose gate comparison fails just past the
    bound; `target` is the bound on the field's own scale."""
    if isinstance(field_value, str):
        return field_value + "0" if op == "==" else target
    if isinstance(field_value, int) and not isinstance(field_value, bool):
        return {"==": math.floor(target) + 1, "!=": target,
                "<": math.ceil(target), "<=": math.floor(target) + 1,
                ">": math.floor(target), ">=": math.ceil(target) - 1}[op]
    step = max(abs(target) * 1e-9, 1e-12)
    return {"==": target + step, "!=": target, "<": target,
            "<=": target + step, ">": target, ">=": target - step}[op]


def self_test(gates, dumps, baseline):
    failed = evaluate(gates, dumps, baseline, quiet=True)
    if failed:
        print(f"self-test: the passing dumps fail {failed}")
        return 1
    problems = []
    for gate in gates:
        if gate["bench"] not in dumps:
            problems.append(f"{gate['id']}: no dump of {gate['bench']}")
            continue
        mutated = copy.deepcopy(dumps)
        rows = mutated[gate["bench"]]
        row = next(r for r in rows if matches(r, gate["row"]))
        when = gate.get("when")
        if when is not None:
            row[when[0]] = when[2]  # every `when` in gates.json admits its value
        bound = bound_of(gate, row, rows, baseline)
        den = resolve(gate["per"], row, rows, baseline) if "per" in gate else 1
        target = bound if isinstance(bound, str) else bound * den
        row[gate["metric"]] = past_bound(row[gate["metric"]], target, gate["op"])
        if gate["id"] not in evaluate(gates, mutated, baseline, quiet=True):
            problems.append(f"{gate['id']}: {gate['metric']} = "
                            f"{row[gate['metric']]} did not fail")
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {len(gates) - len(problems)}/{len(gates)} gates fail "
          "just past their bound; the unmutated dumps pass")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dumps", nargs="+")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(GATES) as f:
        gates = json.load(f)["gates"]
    ids = [g["id"] for g in gates]
    if len(ids) != len(set(ids)):
        sys.exit("error: duplicate gate ids")
    dumps = load_dumps(args.dumps)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f).get("rows", [])
    if args.self_test:
        return self_test(gates, dumps, baseline)
    failed = evaluate(gates, dumps, baseline)
    if failed:
        print(f"\nFAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("\nOK: every evaluated gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
