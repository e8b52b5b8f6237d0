"""Spans around the library's public functions, recorded from outside.

`instrument` replaces each listed function in every `seifert_actions`
namespace that holds it, so calls from the CLI and from other modules
are seen where they are looked up; a listed method (`RationalAngle.scale`)
is replaced on its class.  Wrappers pass results and exceptions
through unchanged.  Spans live in flat integer arrays (name, start, end,
parent, op) until the run ends; `summary` turns them into self times.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

# span name -> (module, function) pairs it covers
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.argparse": [("cli", "build_parser")],
    "seifert.parse": [("seifert", "parse_presentation"), ("seifert", "parse_pair")],
    "seifert.validate": [("seifert", "validate"), ("seifert", "require_valid")],
    "seifert.normalize": [("seifert", "normalize")],
    "seifert.equivalent": [("seifert", "equivalent")],
    "seifert.euler": [("seifert", "euler_number")],
    "seifert.moves": [("seifert", "apply_move")],
    "seifert.gluing": [("seifert", "gluing_pair"), ("seifert", "induced_fibration")],
    "seifert.format": [("seifert", "format_presentation"), ("seifert", "format_normalized")],
    "orbifold.parse": [("orbifold", "parse_orbifold")],
    "orbifold.data": [("orbifold", "OrbifoldData")],
    "orbifold.chi": [("orbifold", "euler_characteristic"), ("orbifold", "geometry_sign")],
    "orbifold.orbit_numbers": [("orbifold", "possible_orbit_numbers")],
    "obstruction.divisibility": [
        ("obstruction", "obstruction_divisor"),
        ("obstruction", "satisfies_obstruction_divisibility"),
    ],
    "obstruction.decompose": [("obstruction", "decompose")],
    "obstruction.rewrite": [("obstruction", "rewrite_presentation")],
    "obstruction.format": [("obstruction", "format_witness")],
    "torus.compose": [("torus", "compose"), ("torus", "inverse"), ("torus", "power")],
    "torus.conjugate": [("torus", "conjugate_by_gluing")],
    "torus.order": [("torus", "order")],
    "torus.gluing": [("torus", "gluing_automorphism")],
    "groups.parse": [("groups", "parse_group_file")],
    "groups.validate": [("groups", "validate_group")],
    "groups.build": [
        ("groups", "cyclic_group"),
        ("groups", "dihedral_group"),
        ("groups", "direct_product"),
        ("groups", "quaternion_group"),
    ],
    "groups.subgroup": [("groups", "is_subgroup"), ("groups", "generated_subgroup")],
    "action.parse": [("action", "parse_action_file")],
    "action.data": [("action", "ExtendedActionData")],
    "action.verify": [("action", "verify_action")],
    "action.query": [
        ("action", "boundary_action"),
        ("action", "induced_filling_action"),
        ("action", "boundary_orbit_numbers"),
    ],
    "action.format": [("action", "format_action")],
    "structure.report": [("structure", "structure_report"), ("structure", "format_report")],
    # methods, patched on their class
    "rational.angle": [
        ("rational", "RationalAngle.__add__"),
        ("rational", "RationalAngle.__sub__"),
        ("rational", "RationalAngle.__neg__"),
        ("rational", "RationalAngle.scale"),
    ],
}


def _count_verify(counts, args, result):
    data = args[0]
    n_el = data.group.order
    counts["action.pairs_checked"] += n_el * n_el
    counts["action.law_checks"] += n_el * n_el * (3 + data.n_boundary)
    counts["action.violations"] += len(result)


COUNTERS = {
    "groups.validate": lambda c, args, result: c.update({"groups.table_entries": len(args[0]) ** 2}),
    "groups.build": lambda c, args, result: c.update({"groups.build_entries": result.order ** 2}),
    "action.verify": _count_verify,
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name, self.start, self.end, self.parent, self.opid = (array("q") for _ in range(5))
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None):
        name_id = self.ids[name]
        names, starts, ends, parents, opids = self.name, self.start, self.end, self.parent, self.opid
        stack, counts = self.stack, self.counts

        # A span is the call as its caller sees it: it starts before the
        # bookkeeping, so the tracer's own cost lands inside the span and
        # not in the caller's time.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            opids.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def summary(self):
        """Per span name: self ns and calls."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns, calls = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_ns[name] += dur[i] - child[i]
            calls[name] += 1
        return self_ns, calls

    def write(self, path) -> None:
        """Spans as CSV (name,start_ns,end_ns,parent,op), gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                          f"{self.parent[i]},{self.opid[i]}\n")


def instrument(tracer: Tracer, package, modules):
    """Wrap every function in SPANS wherever a module of the package holds
    it, and every method on its class; return a function that undoes it all."""
    undo = []  # (namespace dict or class, name, original)
    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    for name, targets in SPANS.items():
        for module, attr in targets:
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(modules[module], cls_name)
                original = vars(cls)[method]
                undo.append((cls, method, original))
                setattr(cls, method, tracer.wrap(name, original))
                continue
            original = getattr(modules[module], attr)
            if (module, attr) == ("cli", "build_parser"):
                wrapped = _wrap_parser(tracer, original)
            else:
                wrapped = tracer.wrap(name, original, COUNTERS.get(name))
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        undo.append((ns, key, value))
                        ns[key] = wrapped

    def restore():
        for where, key, value in reversed(undo):
            if isinstance(where, dict):
                where[key] = value
            else:
                setattr(where, key, value)

    return restore


def _wrap_parser(tracer, build_parser):
    """Time building the parser and parsing the arguments as cli.argparse."""
    timed_build = tracer.wrap("cli.argparse", build_parser)

    def wrapper():
        parser = timed_build()
        parser.parse_args = tracer.wrap("cli.argparse", parser.parse_args)
        return parser

    return functools.wraps(build_parser)(wrapper)
