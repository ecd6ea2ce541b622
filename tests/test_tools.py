import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every entry of tools/unreached.py is kept on purpose (ROADMAP, "Library
# code that only tests reach"); a change that removes one updates this list
KEPT_UNREACHED = [
    "name   wnc.delay.cramer_prefactors",
    "name   wnc.delay.backlog_tail",
    "name   wnc.distributions.DiscreteDistribution.affine",
    "name   wnc.distributions.DiscreteDistribution.convolve",
    "name   wnc.interference.feedback_delay",
    "name   wnc.ordering.st_order",
    "name   wnc.ordering.icx_order",
    "name   wnc.ordering.delay_ordering_check",
    "param  wnc.distributions.DiscreteDistribution.affine(shift)",
    "param  wnc.distributions.DiscreteDistribution.affine(scale)",
    "param  wnc.fading.certify_light_tail(grid_n)",
    "param  wnc.fading.certify_light_tail(rate)",
    "param  wnc.interference.feedback_delay(multiplier)",
    "param  wnc.interference.feedback_delay(improved)",
    "param  wnc.interference.e2e_delay_bound(theta)",
    "param  wnc.ordering.delay_ordering_check(dcc_d)",
    "param  wnc.ordering.delay_ordering_check(dcc_eps)",
]


def test_unreached_lists_only_the_entries_kept_on_purpose():
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "unreached.py")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == KEPT_UNREACHED
    # the counts line goes to stderr
    assert run.stderr.startswith("8 of ") and ", 9 of " in run.stderr


def _trees():
    """(file name, AST) of each ``src/wnc/*.py``."""
    package = os.path.join(ROOT, "src", "wnc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def _call_sites(called_name):
    """(file, line) of every call of a function or method named
    ``called_name`` in ``src/wnc/*.py``, read from the AST."""
    sites = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called == called_name:
                    sites.append((name, node.lineno))
    return sites


def test_spectral_has_one_call_site():
    # every tilt is read through processes._Tilts, the one memo per query;
    # a second caller would be a second home for a tilt's (kappa, h)
    callers = _call_sites("_spectral")
    assert [name for name, _ in callers] == ["processes.py"], callers


def test_no_matrix_power_in_the_package():
    # which powers of a zero pattern are positive is asked of one helper,
    # processes._walks, by squaring clipped at 1; a float matrix power counts
    # walks and overflows from about 143 dense states
    assert _call_sites("matrix_power") == []


def test_no_method_named_sample_in_the_package():
    # the Monte Carlo oracle draws every law through simulate._slots; a
    # sample method beside it would be a second sampler to keep in step
    methods = [(name, item.lineno) for name, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name == "sample"]
    assert methods == []


def _isinstance_tests(type_names):
    """{(file, function)} of each ``isinstance`` test in ``src/wnc/*.py``
    whose type argument names one of ``type_names``."""
    found = set()
    for name, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and any(isinstance(n, ast.Name) and n.id in type_names
                                for n in ast.walk(node.args[-1]))):
                    found.add((name, func.name))
    return found


def test_bounds_read_the_kernel_not_the_process_type():
    # an Additive process is the one-state Markov-additive one: every
    # Chernoff, ruin and support reader takes its kernel from
    # processes._kernel, so no bound chooses a path by process type
    tests = _isinstance_tests({"Additive", "MarkovAdditive"})
    assert [f for name, f in tests if name == "delay.py"] == []
    assert ({f for name, f in tests if name == "processes.py"}
            == {"_kernel", "process_mean_rate"})


def test_each_runner_reads_exactly_its_query_fields():
    # cli._QUERY_FIELDS is the one home of what a query kind reads: each
    # _run_<kind> reads its query only as query["<field>"], and reads every
    # field of its entry, which run_command has filled with its default
    from wnc import cli

    assert cli._RUNNERS.keys() == cli._QUERY_FIELDS.keys()
    tree = dict(_trees())["cli.py"]
    runners = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    for kind, fields in cli._QUERY_FIELDS.items():
        func = runners[f"_run_{kind}"]
        reads = [node for node in ast.walk(func)
                 if isinstance(node, ast.Name) and node.id == "query"
                 and not isinstance(node.ctx, ast.Store)]
        subscripts = {node.value: node.slice for node in ast.walk(func)
                      if isinstance(node, ast.Subscript)}
        keys = [subscripts.get(node) for node in reads]
        assert all(isinstance(k, ast.Constant) for k in keys), kind
        assert {k.value for k in keys} == fields.keys(), kind
