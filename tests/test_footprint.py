"""The runtime footprint is the standard library alone: every import in
the package, at module level or inside a function, names the standard
library or `torelli` itself; and `import torelli.cli` loads only what
its table-building commands run."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import torelli

ALLOWED = set(sys.stdlib_module_names) | {"torelli"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            root = "torelli" if node.level else node.module.split(".")[0]
            yield node.lineno, root


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root not in ALLOWED:
                foreign.append(f"{path.name}:{lineno} imports {root}")
    assert not foreign, foreign


def test_cli_import_loads_only_what_its_main_commands_run():
    # Every command starts a fresh interpreter, so the import is paid per
    # run: `import torelli.cli` loads argparse and the errors alone, every
    # module of the computation and `fractions` wait until a command needs
    # them, no third-party parser is loaded, and the package still exports
    # every name.
    src = str(Path(torelli.__file__).parent.parent)
    script = (
        "import sys, torelli.cli\n"
        "print(sorted(m for m in ('click', 'dataclasses', 'json', 'torelli.graphs', "
        "'torelli.invariants', 'fractions', 'decimal', 'torelli.pipeline', 'torelli.labels', "
        "'torelli.symfunc') if m in sys.modules))\n"
        "import torelli\n"
        "missing = [name for name in torelli.__all__ if getattr(torelli, name, None) is None]\n"
        "from torelli import branching, characters, invariants, labels, pipeline, setparts, symfunc\n"
        "print(missing, invariants.__name__, torelli.matching_span_rank.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["[]", "[] torelli.invariants torelli.invariants"]


def test_a_rank_run_loads_no_fraction_and_no_pipeline():
    # the rank runs on ints; `omega_m` alone builds Fractions
    src = str(Path(torelli.__file__).parent.parent)
    script = (
        "import sys\n"
        "from torelli.cli import main\n"
        "code = main(['invariants', 'rank', '--g', '2', '--set-size', '6', '--epsilon', '-1'])\n"
        "print(code, sorted(m for m in ('fractions', 'torelli.pipeline') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["set size 6, genus 2, epsilon -1: rank 14 of 15 matchings", "0 []"]


def test_nothing_in_the_package_needs_the_interpreter_teardown():
    # `main()` ends its process with os._exit once stdout and stderr are
    # flushed, so no module may leave work to the teardown: no atexit
    # handler, thread, logging handler or temporary file, and no file
    # opened for writing.
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    teardown = {"atexit", "threading", "_thread", "multiprocessing", "concurrent", "logging",
                "tempfile"}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{lineno} imports {root}"
                  for lineno, root in _imported_roots(tree) if root in teardown]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if not (isinstance(mode, ast.Constant) and mode.value == "r"):
                    found.append(f"{path.name}:{node.lineno} opens a file not only to read it")
    assert found == []


def test_the_graph_oracle_stays_out_of_the_package():
    # The sequential contraction, the cubic rewriting, the canonical forms
    # and the presentation audit check the contraction from
    # tests/graph_oracle.py; the package keeps one contraction route, the
    # one-pass `reduce`, and every lazy export is a public name.
    from inspect import signature

    from torelli import _LAZY, graphs

    moved = ["reduce_trivalent", "presentation_audit", "SignedGraphVector", "compare_sign", "canonical",
             "_Work", "contract_in_order"]
    assert [name for name in moved if hasattr(graphs, name)] == []
    assert list(signature(graphs.reduce).parameters) == ["graph", "variant"]
    assert not hasattr(graphs.MarkedGraph, "canonical")
    assert sorted(set(_LAZY) - set(torelli.__all__)) == []


def test_the_bead_oracle_stays_out_of_the_package():
    # `partitions.ribbon_strips` is the one routine that moves beads; the
    # rim-hook slide and the power-sum routes it replaced, plethysm's
    # among them, and the rim-hook recursion for character values live in
    # tests/bead_oracle.py. The p-monomial merge is left only to
    # `labels.l_class`; the character table is `symfunc._p_monomial_schur`,
    # which `characters.murnaghan_nakayama` only reads.
    from torelli import branching, partitions, symfunc

    gone = ["slide_beads", "_p_action", "_scaled_p_action", "_even_sum_p", "to_p",
            "from_p_monomials", "_horner", "_stretch", "_p_series_mul", "_to_schur_series",
            "rim_hooks"]
    left = [
        f"{module.__name__}.{name}"
        for module in (torelli, branching, partitions, symfunc, symfunc.SymFunc)
        for name in gone + ["_p_mul_into"]
        if hasattr(module, name)
    ]
    assert left == []
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name in gone if any(f"def {name}(" in text for text in sources.values())] == []
    assert [name for name, text in sources.items() if "def _p_mul_into(" in text] == ["labels.py"]
    assert [module.__name__ for module in (partitions, symfunc)
            if hasattr(module, "murnaghan_nakayama")] == []
    assert [name for name, text in sources.items()
            if "def murnaghan_nakayama(" in text] == ["characters.py"]


def test_the_brauer_oracle_stays_out_of_the_package():
    # The Brauer functor and the harmonic projection check the calculus
    # from tests/brauer_oracle.py, and the dense tensors, the form's 2g x 2g
    # tables and their size cap check the sparse matching tensors from
    # there; `invariants` imports no other module of the package, and
    # every export resolves through the one lazy table.
    from importlib import import_module

    from torelli import _LAZY, invariants, setparts

    gone = {
        invariants: ["K_on_morphism", "contraction_rows", "_sparse_kernel", "harmonic_projection",
                     "_harmonic_traces", "harmonic_multiplicity"],
        setparts: ["BrauerMorphism", "compose", "_phi", "_normalize", "apply_morphism",
                   "day_product", "GroundSetOverlap", "IllegalContraction"],
        setparts.SignedPartitionVector: ["zero", "basis", "is_zero", "__add__", "__sub__", "scale"],
    }
    left = [f"{owner.__name__}.{name}" for owner, names in gone.items() for name in names
            if name in vars(owner)]
    assert left == []
    dense = re.compile(r"\b(DenseTensor|TENSOR_ENTRY_CAP|gram|dual)\b")
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    named = [f"{path.name}: {name}" for path in modules
             for name in dense.findall(path.read_text(encoding="utf-8"))]
    assert named == []
    tree = ast.parse(Path(invariants.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []
    assert sorted(_LAZY) == sorted(torelli.__all__)
    unresolved = [name for name, module in _LAZY.items()
                  if getattr(torelli, name) is not getattr(import_module(f"torelli.{module}"), name)]
    assert unresolved == []


def test_the_labelled_basis_oracle_stays_out_of_the_package():
    # The characters count labels on the set partitions each class fixes;
    # the labelled basis they were counted on, the walk over all set
    # partitions with its per-class test, and the Bell and basis caps
    # live in tests/basis_oracle.py or are gone.
    from torelli import pipeline, setparts

    gone = {
        setparts: ["enumerate_basis", "_empty_families", "_blocks_within", "_perm_from_cycle_type",
                   "itemgetter"],
        pipeline: ["_bell", "_basis_sizes", "ORACLE_BASIS_CAP", "ORACLE_SET_PARTITION_CAP"],
    }
    left = [f"{owner.__name__}.{name}" for owner, names in gone.items() for name in names
            if hasattr(owner, name)]
    assert left == []
    assert "enumerate_basis" not in torelli.__all__


def test_one_combination_type_and_one_series_type():
    # Schur functions and Sp/O classes share the arithmetic of
    # symfunc._Combination, their series that of symfunc._Series; the
    # per-kind encoders, decoders and renderers they replaced are gone,
    # and no caller branches on the series kind.
    from inspect import getsource

    from torelli import cli, setparts
    from torelli.branching import ClassSeries, OrthSympClass
    from torelli.symfunc import LambdaSeries, SymFunc

    assert OrthSympClass.__add__ is SymFunc.__add__
    assert ClassSeries.mul_scalar_series is LambdaSeries.mul_scalar_series
    gone = ["_mask_class", "_mask_class_series", "_as_class", "_as_symfunc", "_encode_series",
            "_scalar_product", "render_class_series", "_mask_symfunc", "_mask_series",
            "render_class", "render_series", "render_symfunc", "_scale_and_divide"]
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name in gone if any(f"def {name}(" in text for text in sources.values())] == []
    assert [name for name in gone if name in torelli.__all__] == []
    assert [f.__name__ for f in (setparts.quotient_series_by_L, cli.series)
            if "isinstance" in getsource(f)] == []


def test_one_label_rule_and_one_label_count():
    # `labels` owns the rule for the labels a part may carry and the count
    # of labels by degree; `setparts` and `pipeline` read them, and the
    # products of geometric series are a test oracle in tests/test_labels.py.
    from torelli import pipeline, setparts

    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name, text in sources.items() if "def _allowed(" in text] == ["labels.py"]
    assert [name for name, text in sources.items() if "def _geometric(" in text] == []
    assert "labels_up_to" not in sources["setparts.py"]
    assert not hasattr(setparts, "labels_up_to")
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "labels"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_helpers_no_command_reaches_stay_out_of_the_package():
    # The helpers that no command, acceptance criterion or bench reached
    # are gone; those a test oracle or fixture needs live beside it:
    # `labels_up_to` in tests/basis_oracle.py, the hook-length formula and
    # `homogeneous_components` in tests/bead_oracle.py, `corolla` and the
    # JSON writer of graphs in tests/test_graphs.py; a test oracle that
    # subtracts series adds x * -1, and one that shifts a series does it
    # on its terms, since a series holds no negative exponent and a
    # product knows the smaller order. `parse_partition`,
    # `parse_label` and `parse_graph` read numbers by one rule.
    from torelli import branching, characters, graphs, labels, partitions, pipeline, setparts, symfunc

    gone = {
        labels: ["poincare_series", "labels_up_to"],
        labels.LabelMonomial: ["__lt__"],
        labels.LPolynomial: ["coefficient", "__eq__"],
        partitions: ["symmetric_group_irrep_dim", "hook_lengths"],
        partitions.Partition: ["length"],
        graphs: ["corolla"],
        graphs.MarkedGraph: ["to_json"],
        setparts.LabelledPartition: ["to_json"],
        characters.ClassFunction: ["value", "__add__", "__sub__", "__mul__", "__rmul__"],
        symfunc._Combination: ["homogeneous_components", "__rsub__"],
        symfunc: ["_product_trunc"],
        symfunc._Series: ["__rsub__", "__neg__", "__sub__", "shift", "truncate"],
        branching.OrthSympClass: ["zero"],
        branching.ClassSeries: ["zero"],
        pipeline.CohomologyTable: ["max_degree"],
    }
    left = [f"{owner.__name__}.{name}" for owner, names in gone.items() for name in names
            if name in vars(owner)]
    assert left == []
    moved = ["labels_up_to", "symmetric_group_irrep_dim", "hook_lengths", "corolla",
             "homogeneous_components"]
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name in moved if any(f"def {name}(" in text for text in sources.values())] == []
    assert [f"{path}: {name}" for path, text in sources.items()
            for name in ("_product_trunc", "shift", "truncate") if f"def {name}(" in text] == []
    # characters are counted on P' alone; only the label rule and the
    # held `sigma_character` name a variant
    from inspect import signature

    counted = (setparts.sigma_characters, setparts._orbit_types, setparts._label_series,
               setparts._block_floor, labels._part_label_counts)
    assert [f.__name__ for f in counted if "variant" in signature(f).parameters] == []
    assert [name for name in moved + ["poincare_series"] if name in torelli.__all__] == []
    assert [name for name, text in sources.items() if "def _is_number(" in text] == ["partitions.py"]
    assert labels._is_number is graphs._is_number is partitions._is_number


def test_scalar_t_series_are_integer_lists():
    # The L-quotient, the bundle factor and the empty parts are lists of
    # ints by degree: no scalar series is turned back into integers over
    # a second denominator, and `setparts` reads nothing from `symfunc`.
    modules = sorted(Path(torelli.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name, text in sources.items() if "def _scalar_factors(" in text] == []
    assert [name for name, text in sources.items() if "final_den" in text] == []
    tree = ast.parse(sources["setparts.py"])
    imported = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and "symfunc" in (node.module or ""))
        or (isinstance(node, (ast.Import, ast.ImportFrom))
            and any("symfunc" in alias.name for alias in node.names))
    ]
    assert imported == []
