"""FLOW001–FLOW003: one true positive and one true negative each,
plus the suppression interactions the rules promise."""

import pytest

from .helpers import lint_snippet, lint_tree, rules_of

# ---------------------------------------------------------------------------
# FLOW001
# ---------------------------------------------------------------------------

_RNG_CHAIN = {
    "repro.core.tasks": """
    import numpy as np

    def _jitter():
        return np.random.default_rng()

    def crunch_task(x):
        return _jitter().integers(0, x)
    """,
    "repro.core.driver": """
    from repro.core.tasks import crunch_task

    def run(engine):
        return engine.submit(crunch_task, 8)
    """,
}


def test_flow001_fires_on_transitive_rng_in_submitted_task():
    findings = lint_tree(_RNG_CHAIN, select=["FLOW001"], flow=True)
    assert rules_of(findings) == ["FLOW001"]
    assert "crunch_task" in findings[0].message
    assert "_jitter" in findings[0].message  # chain is printed


def test_flow001_quiet_when_rng_is_seeded():
    tree = dict(_RNG_CHAIN)
    tree["repro.core.tasks"] = """
    import numpy as np

    def _jitter(seed):
        return np.random.default_rng(seed)

    def crunch_task(x, seed):
        return _jitter(seed).integers(0, x)
    """
    assert lint_tree(tree, select=["FLOW001"], flow=True) == []


def test_flow001_quiet_when_effect_stays_outside_worker_code():
    tree = {
        "repro.core.tasks": """
        def crunch_task(x):
            return x * 2
        """,
        "repro.core.driver": """
        import time
        from repro.core.tasks import crunch_task

        def run(engine):
            handle = engine.submit(crunch_task, 8)
            return handle, time.time()
        """,
    }
    # run() reads the clock but is never submitted: not worker code.
    assert lint_tree(tree, select=["FLOW001"], flow=True) == []


def test_flow001_fires_on_clock_in_worker_module():
    tree = {
        "repro.chain.worker": """
        import time

        def stage(x):
            return x, time.time()
        """,
    }
    findings = lint_tree(tree, select=["FLOW001"], flow=True)
    assert rules_of(findings) == ["FLOW001"]
    assert "wall-clock" in findings[0].message


def test_flow001_suppression_at_intrinsic_site_covers_all_callers():
    tree = {
        "repro.core.tasks": """
        import time

        def _stamp():
            return time.time()  # repro: allow[DET003] wall time is payload metadata

        def a_task(x):
            return _stamp(), x

        def b_task(x):
            return _stamp(), -x
        """,
    }
    # One reasoned suppression at the intrinsic site sanctions the
    # effect for every transitive caller — no per-caller comments.
    assert lint_tree(tree, select=["FLOW001"], flow=True) == []


def test_flow001_suppressible_at_the_task_definition():
    tree = {
        "repro.core.tasks": """
        import time

        def probe_task(x):  # repro: allow[FLOW001] timing probe, output unused
            return time.time(), x
        """,
    }
    assert lint_tree(tree, select=["FLOW001"], flow=True) == []


# ---------------------------------------------------------------------------
# FLOW002
# ---------------------------------------------------------------------------


def test_flow002_fires_on_mutation_after_submit():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            handle = engine.submit(task, payload)
            payload["late"] = 1
            return handle
        """,
    }
    findings = lint_tree(tree, select=["FLOW002"], flow=True)
    assert rules_of(findings) == ["FLOW002"]
    assert "payload" in findings[0].message


def test_flow002_fires_on_mutating_method_call():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, batch):
            handle = engine.dispatch(task, batch)
            batch.append(9)
            return handle
        """,
    }
    findings = lint_tree(tree, select=["FLOW002"], flow=True)
    assert rules_of(findings) == ["FLOW002"]


def test_flow002_quiet_when_mutation_precedes_submit():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            payload["early"] = 1
            return engine.submit(task, payload)
        """,
    }
    assert lint_tree(tree, select=["FLOW002"], flow=True) == []


def test_flow002_quiet_when_name_is_rebound_first():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            handle = engine.submit(task, payload)
            payload = {}
            payload["fresh"] = 1
            return handle
        """,
    }
    # Rebinding makes a new object; mutating it cannot race the worker.
    assert lint_tree(tree, select=["FLOW002"], flow=True) == []


# ---------------------------------------------------------------------------
# FLOW003
# ---------------------------------------------------------------------------


def test_flow003_fires_on_lambda_argument_to_submit():
    tree = {
        "repro.core.driver": """
        def task(x, fn):
            return fn(x)

        def run(engine):
            return engine.submit(task, 3, lambda v: v + 1)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"], flow=True)
    assert rules_of(findings) == ["FLOW003"]
    assert "lambda" in findings[0].message


def test_flow003_fires_transitively_through_a_helper():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine):
            return _dispatch(engine, task, lambda: 3)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"], flow=True)
    assert rules_of(findings) == ["FLOW003"]
    assert "_dispatch" in findings[0].message


def test_flow003_fires_on_open_handle_through_chain():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine, path):
            fh = open(path)
            return _dispatch(engine, task, fh)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"], flow=True)
    assert rules_of(findings) == ["FLOW003"]
    assert "file handle" in findings[0].message


def test_flow003_quiet_on_plain_data_through_chain():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine):
            return _dispatch(engine, task, [1, 2, 3])
        """,
    }
    assert lint_tree(tree, select=["FLOW003"], flow=True) == []


def test_flow003_quiet_when_helper_never_submits():
    tree = {
        "repro.core.driver": """
        def _apply(fn, arg):
            return fn(arg)

        def run():
            return _apply(lambda v: v + 1, 3)
        """,
    }
    # Lambdas are fine in-process; only the pool boundary pickles.
    assert lint_tree(tree, select=["FLOW003"], flow=True) == []


def test_flow_rules_do_not_run_without_flow_flag():
    findings = lint_tree(_RNG_CHAIN, select=["FLOW001"])
    assert findings == []


# The PAR001/PAR002 true-positive fixtures (tests/analysis/
# test_parallel_rules.py): FLOW003 must flag each one as well, so the
# flow pass loses nothing the syntactic rules catch.
_PAR_TRUE_POSITIVES = {
    "PAR001": """
    def fan_out(engine, items):
        return [engine.submit(lambda x: x * 2, item)
                for item in items]
    """,
    "PAR002": """
    def fan_out(engine, items, scale):
        def task(x):
            return x * scale
        return [engine.submit(task, item) for item in items]
    """,
    "PAR002-assigned": """
    def fan_out(engine, items):
        task = lambda x: x * 2
        return [engine.submit(task, item) for item in items]
    """,
}


@pytest.mark.parametrize("case", sorted(_PAR_TRUE_POSITIVES))
def test_flow003_flags_every_par_true_positive(case):
    source = _PAR_TRUE_POSITIVES[case]
    par = lint_snippet(source, select=["PAR001", "PAR002"])
    assert rules_of(par) == [case.split("-")[0]]
    findings = lint_tree(
        {"repro.core.driver": source}, select=["FLOW003"], flow=True
    )
    assert rules_of(findings) == ["FLOW003"]
    assert "task callable" in findings[0].message


def test_flow003_fires_on_callable_passed_through_a_helper():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def run(engine):
            def inner(x):
                return x
            return _dispatch(engine, inner, 3)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"], flow=True)
    assert rules_of(findings) == ["FLOW003"]
    assert "nested function inner" in findings[0].message


def test_flow003_quiet_on_module_level_task_callable():
    tree = {
        "repro.core.driver": """
        def double_task(x):
            return x * 2

        def fan_out(engine, items):
            return [engine.submit(double_task, item) for item in items]
        """,
    }
    assert lint_tree(tree, select=["FLOW003"], flow=True) == []
